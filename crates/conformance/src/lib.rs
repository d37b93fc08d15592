//! Statistical conformance harness for the NHPP interval estimators.
//!
//! The DSN 2007 paper's central claim is that the structured variational
//! posterior (VB2) is *calibrated* — its credible intervals track the
//! numerical-integration reference where the factorised VB1's
//! structurally-zero covariance under-covers. This crate turns that
//! claim into a continuously-checked correctness layer with four parts:
//!
//! * [`scenario`] — a seeded 2×2×2×2 scenario grid (model family ×
//!   data kind × prior × sample size) of deterministic synthetic
//!   campaigns;
//! * [`sbc`] — simulation-based calibration: rank/PIT uniformity of the
//!   ground truth under the fitted posterior, χ²- and KS-tested;
//! * [`coverage`] — an empirical coverage runner with binomial error
//!   bands and exhaustive per-method failure accounting, plus the
//!   fixed-truth study behind `results/coverage.txt`;
//! * [`golden`] — a golden oracle pinning the paper's Tables 1–7 /
//!   Figure 1 numbers with tolerance bands and a `--bless` mode;
//! * [`calibrate`] — the offline learner behind the recalibration
//!   layer: it grid-searches per-regime spread factors against
//!   empirical coverage and emits the `nhpp-calibration/v1` dictionary
//!   that `nhpp_vb::calibration` applies and `nhpp-serve` loads;
//! * [`monitor`] — a seeded false-alarm-rate check for the streaming
//!   SPC charts: in-control traces must (almost) never trip either
//!   limit scheme's run-length alarm, with golden-pinned counts.
//!
//! The `conformance_report` bin sweeps a grid, emits a machine-readable
//! `conformance/v1` report ([`report`]), and exits nonzero when the
//! gate fails — the correctness twin of the bench crate's perf
//! regression pipeline.

// Same policy as the other workspace crates: `!(x > 0.0)` guards are
// NaN-rejecting by construction.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod calibrate;
pub mod coverage;
pub mod golden;
pub mod methods;
pub mod monitor;
pub mod report;
pub mod sbc;
pub mod scenario;
pub mod stats;

pub use calibrate::{learn, CalibrateConfig};
pub use coverage::{
    run_cell_coverage, run_study, study_report, CalibratedCoverage, CoverageConfig, CoverageStudy,
    MethodCoverage, Tally,
};
pub use methods::{posterior_cdf_beta, posterior_cdf_omega, Method};
pub use monitor::{run_false_alarm, CellFalseAlarm, FalseAlarmConfig, SchemeTally};
pub use report::{gate_passed, run, ConformanceRun, Grid, SCHEMA};
pub use sbc::{run_sbc, SbcConfig, SbcResult};
pub use scenario::{DataKind, GridCell, ModelKind, PriorKind, SampleSize};
pub use stats::{binomial_se, chi_square_uniform, ks_uniform, UniformityTest};
