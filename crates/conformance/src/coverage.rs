//! Interval-coverage harnesses: the gated grid runner and the
//! fixed-truth study behind `results/coverage.txt`.
//!
//! Both count how often a method's nominal credible interval for `ω`
//! contains the generating truth, with exhaustive per-method failure
//! accounting: every campaign is recorded in a [`Tally`], either as an
//! interval or under its failure reason, so `attempted == fitted +
//! dropped` always holds and nothing silently leaves the denominator.
//!
//! **Grid runner** ([`run_cell_coverage`]). For each grid cell this fits
//! every method on `replications` seeded campaigns, with binomial
//! standard errors. On Info cells the truth is *drawn from the prior*
//! each campaign: that is the regime in which an exactly calibrated
//! Bayesian interval has exactly nominal marginal coverage, so the
//! ±3·se band is a real two-sided gate. (With a truth pinned at the
//! prior mean even an exact posterior over-covers — the truth then sits
//! at the posterior's centre of mass.) NoInfo cells have no generative
//! prior, so they use the cell's fixed truth and are reported rather
//! than gated.
//!
//! The verdict bands are ±3 binomial standard errors around the nominal
//! level: a calibrated method must land inside, and a method whose rate
//! falls *below* the lower band is flagged `under_covering` — the
//! paper's VB1 story, made mechanical.
//!
//! **Fixed-truth study** ([`run_study`]). The paper argues that interval
//! *accuracy* matters more than point accuracy for small samples. The
//! study simulates many campaigns from one known Goel–Okumoto process
//! and reports every interval estimator side by side, including
//! LAPL-LOG and the frequentist PROFILE interval, whose drops (no
//! finite upper bound, the frequentist face of the NoInfo impropriety)
//! are recorded by reason.

use crate::methods::{model_error_class, Method};
use crate::scenario::{sample_prior, GridCell};
use crate::stats::binomial_se;
use nhpp_data::simulate::NhppSimulator;
use nhpp_data::ObservedData;
use nhpp_dist::Gamma;
use nhpp_models::confidence::{profile_interval, Param};
use nhpp_models::prior::NhppPrior;
use nhpp_models::ModelSpec;
use nhpp_vb::calibration::{Calibration, CalibrationDictionary};
use nhpp_vb::Vb2Options;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Coverage counts for one method. Every campaign a harness attempts is
/// either `fitted` (interval produced) or recorded under a failure
/// reason in `dropped` — `attempted == fitted + Σ dropped`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Tally {
    /// Campaigns attempted for this method.
    pub attempted: usize,
    /// Campaigns in which the interval contained the true ω.
    pub covered: usize,
    /// Campaigns successfully fitted.
    pub fitted: usize,
    /// Campaigns that produced no interval, keyed by the failure reason.
    pub dropped: BTreeMap<String, usize>,
}

impl Tally {
    /// Records one campaign: either an interval to check against the
    /// truth, or the reason no interval was produced.
    pub fn record(&mut self, interval: Result<(f64, f64), String>, truth: f64) {
        self.attempted += 1;
        match interval {
            Ok((lo, hi)) => {
                self.fitted += 1;
                if lo <= truth && truth <= hi {
                    self.covered += 1;
                }
            }
            Err(reason) => {
                *self.dropped.entry(reason).or_insert(0) += 1;
            }
        }
    }

    /// Empirical coverage rate among fitted campaigns (NaN with no
    /// successful fits).
    pub fn rate(&self) -> f64 {
        self.covered as f64 / self.fitted as f64
    }

    /// Total campaigns that produced no interval.
    pub fn dropped_total(&self) -> usize {
        self.dropped.values().sum()
    }
}

/// Coverage-runner configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoverageConfig {
    /// Campaigns per cell.
    pub replications: usize,
    /// Nominal interval level.
    pub level: f64,
    /// Base seed; campaign `i` uses the cell stream at `rep = i`,
    /// offset so coverage and SBC never share campaigns.
    pub seed: u64,
}

impl Default for CoverageConfig {
    fn default() -> Self {
        CoverageConfig {
            replications: 200,
            level: 0.95,
            seed: 0xC0_7E41,
        }
    }
}

/// Coverage of the *calibrated* interval for one (cell, method) pair,
/// present when a calibration dictionary supplied a factor for the
/// cell's regime.
#[derive(Debug, Clone)]
pub struct CalibratedCoverage {
    /// The dictionary factor that was applied.
    pub factor: f64,
    /// Campaign accounting for the calibrated interval (same attempted
    /// and fitted counts as the raw tally — calibration never changes
    /// which campaigns fit, only which cover).
    pub tally: Tally,
    /// Empirical calibrated coverage rate (NaN if none fitted).
    pub rate: f64,
    /// Binomial standard error at the nominal level.
    pub se: f64,
    /// `|rate − level| ≤ 3·se` — what the calibrated gate checks.
    pub within_band: bool,
}

/// Coverage outcome for one (cell, method) pair.
#[derive(Debug, Clone)]
pub struct MethodCoverage {
    /// Method label.
    pub method: &'static str,
    /// The exhaustive campaign accounting.
    pub tally: Tally,
    /// Empirical coverage rate among fitted campaigns (NaN if none).
    pub rate: f64,
    /// Binomial standard error of the rate at the nominal level.
    pub se: f64,
    /// `|rate − level| ≤ 3·se` (the calibrated-method gate).
    pub within_band: bool,
    /// `rate < level − 3·se` (the VB1 flag).
    pub under_covering: bool,
    /// Calibrated-interval coverage, when a dictionary entry applied.
    pub calibrated: Option<CalibratedCoverage>,
}

/// Runs the coverage study for every method on one cell. With a
/// calibration dictionary, every campaign additionally tallies the
/// calibrated interval (spread rescaled about the posterior median by
/// the regime's learned factor) against the same truth — the held-out
/// evidence behind the calibrated conformance gate.
pub fn run_cell_coverage(
    cell: &GridCell,
    config: &CoverageConfig,
    calibration: Option<&CalibrationDictionary>,
) -> Vec<MethodCoverage> {
    let spec = cell.spec();
    let prior = cell.prior();
    let vb2_options = cell.vb2_options();
    let methods = Method::all();
    let factors: Vec<Option<Calibration>> = methods
        .iter()
        .map(|m| {
            calibration.and_then(|dict| {
                dict.calibration(cell.model_key(), cell.data_key(), cell.prior_key(), m.label())
            })
        })
        .collect();
    let mut tallies: Vec<Tally> = methods.iter().map(|_| Tally::default()).collect();
    let mut cal_tallies: Vec<Tally> = methods.iter().map(|_| Tally::default()).collect();

    for rep in 0..config.replications {
        // One RNG per campaign, truth drawn before the trace, so the
        // stream layout matches SBC's and campaigns are independently
        // reproducible.
        let mut rng = cell.rng(config.seed, rep as u64);
        let (omega_true, beta_true) = sample_prior(&prior, &mut rng)
            .unwrap_or((cell.omega_true(), cell.beta_true()));
        match cell.simulate_with(omega_true, beta_true, &mut rng) {
            Ok(data) => {
                for (i, (method, tally)) in methods.iter().zip(tallies.iter_mut()).enumerate() {
                    match method.fit(spec, prior, &data, &vb2_options) {
                        Ok(p) => {
                            let raw = p.credible_interval_omega(config.level);
                            if let Some(cal) = &factors[i] {
                                cal_tallies[i].record(
                                    Ok(cal.interval(p.quantile_omega(0.5), raw, 0.0)),
                                    omega_true,
                                );
                            }
                            tally.record(Ok(raw), omega_true);
                        }
                        Err(reason) => {
                            if factors[i].is_some() {
                                cal_tallies[i].record(Err(reason.clone()), omega_true);
                            }
                            tally.record(Err(reason), omega_true);
                        }
                    }
                }
            }
            Err(reason) => {
                // An unusable campaign counts against every method's
                // denominator, with its reason, instead of vanishing.
                for (i, tally) in tallies.iter_mut().enumerate() {
                    if factors[i].is_some() {
                        cal_tallies[i].record(Err(reason.clone()), omega_true);
                    }
                    tally.record(Err(reason.clone()), omega_true);
                }
            }
        }
    }

    methods
        .iter()
        .zip(tallies)
        .zip(factors.iter().zip(cal_tallies))
        .map(|((method, tally), (factor, cal_tally))| {
            let rate = tally.rate();
            let se = binomial_se(config.level, tally.fitted);
            let deviation = rate - config.level;
            let calibrated = factor.map(|cal| {
                let rate = cal_tally.rate();
                let se = binomial_se(config.level, cal_tally.fitted);
                CalibratedCoverage {
                    factor: cal.factor,
                    rate,
                    se,
                    within_band: cal_tally.fitted > 0 && (rate - config.level).abs() <= 3.0 * se,
                    tally: cal_tally,
                }
            });
            MethodCoverage {
                method: method.label(),
                rate,
                se,
                within_band: tally.fitted > 0 && deviation.abs() <= 3.0 * se,
                under_covering: tally.fitted > 0 && deviation < -3.0 * se,
                tally,
                calibrated,
            }
        })
        .collect()
}

/// Parameters of the fixed-truth study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoverageStudy {
    /// Generating expected fault count.
    pub omega_true: f64,
    /// Generating detection rate.
    pub beta_true: f64,
    /// Censoring time per campaign.
    pub t_end: f64,
    /// Number of simulated campaigns.
    pub replications: usize,
    /// Nominal interval level.
    pub level: f64,
    /// Base RNG seed; campaign `rep` uses `seed + rep`.
    pub seed: u64,
}

impl Default for CoverageStudy {
    fn default() -> Self {
        // Deliberately small-sample: ~30 failures per campaign with the
        // growth curve only ~63% saturated — the regime the paper
        // targets, where interval methods genuinely differ.
        CoverageStudy {
            omega_true: 40.0,
            beta_true: 2e-4,
            t_end: 5_000.0,
            replications: 200,
            level: 0.95,
            seed: 0xC0FFEE,
        }
    }
}

/// The posterior methods of the study, in presentation order; PROFILE
/// follows them.
const STUDY_METHODS: [Method; 4] = [Method::Vb2, Method::Vb1, Method::Lapl, Method::LaplLog];

/// Runs the fixed-truth study and returns per-method tallies for the ω
/// interval, keyed by method label in presentation order.
pub fn run_study(study: &CoverageStudy) -> Vec<(&'static str, Tally)> {
    let spec = ModelSpec::goel_okumoto();
    let simulator = NhppSimulator::goel_okumoto(study.omega_true, study.beta_true)
        .expect("valid study parameters");
    // A weak prior centred at the truth (fair to all Bayesian methods).
    let prior = NhppPrior::informative(
        Gamma::from_mean_sd(study.omega_true, study.omega_true).expect("valid"),
        Gamma::from_mean_sd(study.beta_true, study.beta_true).expect("valid"),
    );
    let vb2_options = Vb2Options::default();
    // One tally per posterior method, then PROFILE's.
    let mut tallies = vec![Tally::default(); STUDY_METHODS.len() + 1];

    for rep in 0..study.replications {
        let mut rng = StdRng::seed_from_u64(study.seed.wrapping_add(rep as u64));
        let data: ObservedData = match simulator.simulate_censored(&mut rng, study.t_end) {
            Ok(trace) if trace.len() >= 3 => trace.into(),
            Ok(_) | Err(_) => {
                // Too few failures to fit anything: every method records
                // the campaign, so the denominator never silently shrinks.
                for tally in &mut tallies {
                    tally.record(Err("TooFewFailures".to_string()), study.omega_true);
                }
                continue;
            }
        };
        for (method, tally) in STUDY_METHODS.iter().zip(&mut tallies) {
            tally.record(
                method
                    .fit(spec, prior, &data, &vb2_options)
                    .map(|p| p.credible_interval_omega(study.level)),
                study.omega_true,
            );
        }
        tallies[STUDY_METHODS.len()].record(
            profile_interval(spec, &data, Param::Omega, study.level)
                .map_err(|e| model_error_class(&e)),
            study.omega_true,
        );
    }
    STUDY_METHODS
        .iter()
        .map(Method::label)
        .chain(["PROFILE"])
        .zip(tallies)
        .collect()
}

/// Runs the fixed-truth study and formats it as the
/// `results/coverage.txt` report.
pub fn study_report(study: &CoverageStudy) -> String {
    let results = run_study(study);
    let mut out = String::new();
    writeln!(
        out,
        "Coverage study: {} campaigns from GO(omega={}, beta={:.1e}), t_end={}, nominal {:.0}%",
        study.replications,
        study.omega_true,
        study.beta_true,
        study.t_end,
        study.level * 100.0
    )
    .unwrap();
    writeln!(
        out,
        "{:<10} {:>9} {:>8} {:>8} {:>10}",
        "method", "attempted", "fitted", "dropped", "coverage"
    )
    .unwrap();
    for (name, tally) in &results {
        writeln!(
            out,
            "{:<10} {:>9} {:>8} {:>8} {:>9.1}%",
            name,
            tally.attempted,
            tally.fitted,
            tally.dropped_total(),
            tally.rate() * 100.0
        )
        .unwrap();
    }
    let mut any_dropped = false;
    for (name, tally) in &results {
        for (reason, count) in &tally.dropped {
            if !any_dropped {
                writeln!(out, "dropped campaigns by reason:").unwrap();
                any_dropped = true;
            }
            writeln!(out, "  {name:<10} {count:>4} x {reason}").unwrap();
        }
    }
    writeln!(
        out,
        "(binomial se at 95%/200 reps ≈ 1.5pp. VB1's structural variance\n deficit shows as clear under-coverage; PROFILE's dropped campaigns\n are those where the likelihood admits no finite upper bound — the\n frequentist face of the same small-sample problem.)"
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_coverage_accounts_for_every_campaign() {
        let cell = GridCell::smoke_grid()[0];
        let config = CoverageConfig {
            replications: 25,
            ..CoverageConfig::default()
        };
        let results = run_cell_coverage(&cell, &config, None);
        assert_eq!(results.len(), 4);
        for mc in &results {
            assert_eq!(mc.tally.attempted, config.replications, "{}", mc.method);
            assert_eq!(
                mc.tally.fitted + mc.tally.dropped_total(),
                mc.tally.attempted,
                "{}",
                mc.method
            );
            assert!(!(mc.within_band && mc.under_covering), "{}", mc.method);
            assert!(mc.calibrated.is_none(), "{}", mc.method);
        }
    }

    #[test]
    fn calibrated_tallies_share_the_raw_denominator() {
        use nhpp_vb::calibration::{dictionary_key, CalibrationEntry};
        let cell = GridCell::smoke_grid()[0];
        let config = CoverageConfig {
            replications: 12,
            ..CoverageConfig::default()
        };
        let mut entries = std::collections::BTreeMap::new();
        // A generous widening for VB1 only; other methods stay raw.
        entries.insert(
            dictionary_key(cell.model_key(), cell.data_key(), cell.prior_key(), "VB1"),
            CalibrationEntry {
                factor: 3.0,
                raw_rate: 0.8,
                calibrated_rate: 0.95,
                fitted: 100,
            },
        );
        let dict = CalibrationDictionary {
            label: "CAL_UNIT".to_string(),
            seed: 1,
            replications: 100,
            level: config.level,
            entries,
        };
        let results = run_cell_coverage(&cell, &config, Some(&dict));
        for mc in &results {
            if mc.method == "VB1" {
                let cal = mc.calibrated.as_ref().expect("dictionary entry applied");
                assert_eq!(cal.factor, 3.0);
                assert_eq!(cal.tally.attempted, mc.tally.attempted);
                assert_eq!(cal.tally.fitted, mc.tally.fitted);
                // Widening can only gain coverage.
                assert!(cal.tally.covered >= mc.tally.covered);
            } else {
                assert!(mc.calibrated.is_none(), "{}", mc.method);
            }
        }
    }

    #[test]
    fn small_study_shows_the_expected_ordering() {
        let study = CoverageStudy {
            replications: 60,
            ..CoverageStudy::default()
        };
        let results = run_study(&study);
        let get = |name: &str| {
            results
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, t)| t.clone())
                .expect("method present")
        };
        let vb2 = get("VB2");
        let vb1 = get("VB1");
        assert!(vb2.fitted >= 55, "vb2 fitted {}", vb2.fitted);
        // VB2 is roughly calibrated; VB1's narrow intervals clearly
        // under-cover in this small-sample regime.
        assert!(vb2.rate() >= 0.88, "VB2 coverage {}", vb2.rate());
        assert!(
            vb1.rate() < vb2.rate() - 0.05,
            "VB1 {} vs VB2 {}",
            vb1.rate(),
            vb2.rate()
        );
        // Campaign accounting is exhaustive for every method: nothing
        // vanishes from the denominator.
        for (name, tally) in &results {
            assert_eq!(tally.attempted, study.replications, "{name}");
            assert_eq!(
                tally.fitted + tally.dropped_total(),
                tally.attempted,
                "{name}"
            );
        }
        // PROFILE drops a recognisable fraction of campaigns with a
        // recorded reason (no finite upper bound ⇒ root bracketing or
        // convergence failure), rather than losing them silently.
        let profile = get("PROFILE");
        assert!(
            profile.dropped_total() > 0,
            "expected some PROFILE campaigns without a finite bound"
        );
        assert!(profile.dropped.values().all(|&c| c > 0));
    }

    #[test]
    fn tally_arithmetic() {
        let mut tally = Tally::default();
        tally.record(Ok((1.0, 3.0)), 2.0);
        tally.record(Ok((1.0, 3.0)), 5.0);
        tally.record(Err("IllPosed".to_string()), 2.0);
        tally.record(Err("IllPosed".to_string()), 2.0);
        tally.record(Err("TooFewFailures".to_string()), 2.0);
        assert_eq!(tally.attempted, 5);
        assert_eq!(tally.fitted, 2);
        assert_eq!(tally.covered, 1);
        assert_eq!(tally.dropped_total(), 3);
        assert_eq!(tally.dropped.get("IllPosed"), Some(&2));
        assert!((tally.rate() - 0.5).abs() < 1e-12);
    }
}
