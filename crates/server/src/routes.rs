//! The HTTP endpoint surface, as a pure function from request to
//! response — no sockets here, so every route is unit-testable without
//! binding a port.
//!
//! | Route | Purpose |
//! |---|---|
//! | `GET /healthz` | liveness |
//! | `GET /metrics` | Prometheus text exposition |
//! | `GET /projects` | list projects |
//! | `PUT /projects/{id}?kind=&model=&prior=` | create a project |
//! | `GET /projects/{id}` | project summary |
//! | `POST /projects/{id}/events` | ingest a CSV batch |
//! | `GET /projects/{id}/fit` | posterior summary (refits if stale) |
//! | `GET /projects/{id}/interval?param=&level=` | credible interval |
//! | `GET /projects/{id}/band?points=&level=` | `Λ(t)` credible band |
//! | `GET /projects/{id}/predict?window=&level=` | residual failures |
//! | `GET /projects/{id}/reliability?window=&level=` | reliability |
//! | `GET /projects/{id}/spc` | control-limit check on newest gap |
//! | `GET /projects/{id}/monitor` | control-chart state (catch-up scores) |
//! | `GET /monitor/status` | all charts + alert totals |
//! | `GET /monitor/alerts?since=` | one-shot alert fetch |
//! | `GET /monitor/wait?since=&timeout_ms=` | long-poll alert subscription |
//!
//! Fit failures answer `503` with a structured body carrying the
//! cascade's [`nhpp_vb::FitReport`] essentials — the failure kind,
//! whether a solve budget was exhausted, and the fallback tier reached
//! — so operators see *why* without grepping server logs.

use crate::http::{Request, Response};
use crate::monitor::{Alert, ChartPoint, ChartSnapshot};
use crate::registry::{CreateOutcome, ProjectConfig, RegistryError};
use crate::scheduler::{cached_fit, ensure_fit, FitServeError};
use crate::server::AppState;
use nhpp_data::json::json_string as jstr;
use nhpp_models::spc::{classify, ChartStatus};
use nhpp_models::Posterior;
use nhpp_vb::calibration::{dictionary_key, prior_informativeness};
use nhpp_vb::{Calibration, FailureKind, FitFailure};
use std::fmt::Write as _;
use std::sync::atomic::Ordering;
use std::time::Duration;

// The control limits moved to `nhpp_models::spc` when the streaming
// monitor joined the one-shot route; re-exported so existing callers
// keep their import path.
pub use nhpp_models::spc::{SPC_CL, SPC_LCL, SPC_UCL};

/// Long-poll ceiling for `/monitor/wait`: safely inside the server's
/// 30 s connection read timeout and the client's 60 s response timeout.
const MAX_WAIT_MS: f64 = 25_000.0;

/// Formats a number as JSON; non-finite values become `null` (JSON has
/// no NaN, and a query must not produce an unparsable body).
fn jnum(x: f64) -> String {
    if x.is_finite() {
        let mut s = format!("{x}");
        if !s.contains('.') && !s.contains('e') && !s.contains('E') {
            s.push_str(".0");
        }
        s
    } else {
        "null".to_string()
    }
}

fn error_response(status: u16, message: &str) -> Response {
    Response::json(status, format!("{{\"error\": {}}}", jstr(message)))
}

fn registry_error(err: &RegistryError) -> Response {
    let status = match err {
        RegistryError::Invalid(_) | RegistryError::Data(_) => 400,
        RegistryError::Conflict(_) => 409,
        RegistryError::Io(_) => 500,
    };
    error_response(status, &err.to_string())
}

/// The `503` body for a failed cascade: the satellite fix that surfaces
/// budget exhaustion and the fallback tier in the HTTP response instead
/// of only in the CLI report. Budget/deadline exhaustion is a load
/// signal, so those responses also carry `Retry-After`.
fn fit_failure_response(failure: &FitFailure, retry_after_secs: u32) -> Response {
    let kind = failure
        .report
        .attempts
        .iter()
        .rev()
        .find_map(|a| a.kind)
        .unwrap_or(FailureKind::Other);
    let tier = match failure.report.fallback_tier() {
        Some(t) => jstr(t),
        None => "null".to_string(),
    };
    let response = Response::json(
        503,
        format!(
            "{{\"error\": {}, \"kind\": {}, \"budget_exhausted\": {}, \
             \"fallback_tier\": {}, \"attempts\": {}}}",
            jstr(&failure.error.to_string()),
            jstr(kind.as_str()),
            failure.report.budget_exhausted(),
            tier,
            failure.report.total_attempts(),
        ),
    );
    if failure.report.budget_exhausted() {
        response.with_retry_after(retry_after_secs)
    } else {
        response
    }
}

fn fit_serve_error(state: &AppState, err: &FitServeError) -> Response {
    match err {
        FitServeError::Registry(e) => registry_error(e),
        FitServeError::Fit(failure) => fit_failure_response(failure, state.retry_after_secs),
        FitServeError::DeadlineExceeded => Response::json(
            503,
            "{\"error\": \"fit deadline exceeded\", \"kind\": \"deadline\"}".to_string(),
        )
        .with_retry_after(state.retry_after_secs),
    }
}

fn parse_f64(req: &Request, key: &str, default: f64) -> Result<f64, Response> {
    match req.param(key) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| error_response(400, &format!("bad numeric parameter {key}='{raw}'"))),
    }
}

fn parse_u64(req: &Request, key: &str, default: u64) -> Result<u64, Response> {
    match req.param(key) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| error_response(400, &format!("bad integer parameter {key}='{raw}'"))),
    }
}

fn check_level(level: f64) -> Result<(), Response> {
    if 0.0 < level && level < 1.0 {
        Ok(())
    } else {
        Err(error_response(400, "level must be in (0, 1)"))
    }
}

/// A calibration resolved for one query: the transform plus the
/// provenance echoed back in the response body.
struct AppliedCalibration {
    cal: Calibration,
    key: String,
}

/// Resolves the `calibrated` query parameter against the dictionary
/// loaded at boot. `Ok(None)` means the query did not ask for
/// calibration; a request that asks but cannot be honoured — no
/// dictionary loaded, or no entry for the project's regime × the
/// serving method — is a `400` with a body saying exactly which, never
/// a silently-raw answer.
fn resolve_calibration(
    state: &AppState,
    project: &crate::registry::Project,
    method: &str,
    req: &Request,
) -> Result<Option<AppliedCalibration>, Response> {
    match req.param("calibrated") {
        None | Some("false") | Some("0") => return Ok(None),
        Some("true") | Some("1") => {}
        Some(other) => {
            return Err(error_response(
                400,
                &format!("bad boolean parameter calibrated='{other}'"),
            ))
        }
    }
    let Some(dict) = &state.calibration else {
        state
            .metrics
            .calibration_rejected
            .fetch_add(1, Ordering::Relaxed);
        return Err(error_response(
            400,
            "calibration requested but no dictionary is loaded \
             (start the server with --calibration <file>)",
        ));
    };
    let config = project.config();
    let data = match config.kind.as_str() {
        "times" => "dt",
        _ => "dg",
    };
    let key = dictionary_key(
        &config.model_label,
        data,
        prior_informativeness(&config.prior),
        method,
    );
    match dict.entries.get(&key) {
        Some(entry) => {
            state
                .metrics
                .calibrated_queries
                .fetch_add(1, Ordering::Relaxed);
            Ok(Some(AppliedCalibration {
                cal: Calibration::new(entry.factor),
                key,
            }))
        }
        None => {
            state
                .metrics
                .calibration_rejected
                .fetch_add(1, Ordering::Relaxed);
            Err(error_response(
                400,
                &format!(
                    "no calibration entry for regime '{key}' in dictionary '{}'",
                    dict.label
                ),
            ))
        }
    }
}

/// The provenance object echoed by calibrated responses: which entry
/// was applied and where the dictionary came from, so a served interval
/// is traceable back to the learning sweep that justified it.
fn calibration_json(state: &AppState, applied: Option<&AppliedCalibration>) -> String {
    match (applied, &state.calibration) {
        (Some(applied), Some(dict)) => format!(
            "{{\"key\": {}, \"factor\": {}, \"dictionary\": {}, \"seed\": {}, \
             \"replications\": {}, \"level\": {}}}",
            jstr(&applied.key),
            jnum(applied.cal.factor),
            jstr(&dict.label),
            dict.seed,
            dict.replications,
            jnum(dict.level),
        ),
        _ => "null".to_string(),
    }
}

/// Dispatches one request against the shared state.
pub fn handle(state: &AppState, req: &Request) -> Response {
    let segments = req.segments();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => Response::json(200, "{\"status\": \"ok\"}".to_string()),
        ("GET", ["metrics"]) => {
            let mut text = state.metrics.render_with(Some(state.registry.stats()));
            // Dictionary provenance rides along as gauges, so a scrape
            // shows not just *that* calibration is on but *which* table.
            let _ = writeln!(
                text,
                "# HELP nhpp_serve_calibration_loaded Whether a calibration dictionary is loaded."
            );
            let _ = writeln!(text, "# TYPE nhpp_serve_calibration_loaded gauge");
            match &state.calibration {
                Some(dict) => {
                    let _ = writeln!(text, "nhpp_serve_calibration_loaded 1");
                    let _ = writeln!(
                        text,
                        "# HELP nhpp_serve_calibration_entries Entries in the loaded dictionary."
                    );
                    let _ = writeln!(text, "# TYPE nhpp_serve_calibration_entries gauge");
                    let _ = writeln!(
                        text,
                        "nhpp_serve_calibration_entries{{dictionary=\"{}\",seed=\"{:#x}\"}} {}",
                        dict.label,
                        dict.seed,
                        dict.entries.len()
                    );
                }
                None => {
                    let _ = writeln!(text, "nhpp_serve_calibration_loaded 0");
                }
            }
            Response::text(200, text)
        }
        ("GET", ["projects"]) => list_projects(state),
        ("PUT", ["projects", id]) => create_project(state, req, id),
        ("GET", ["projects", id]) => project_summary(state, id),
        ("POST", ["projects", id, "events"]) => ingest_events(state, req, id),
        ("GET", ["projects", id, "fit"]) => fit_summary(state, id),
        ("GET", ["projects", id, "interval"]) => interval(state, req, id),
        ("GET", ["projects", id, "band"]) => band(state, req, id),
        ("GET", ["projects", id, "predict"]) => predict(state, req, id),
        ("GET", ["projects", id, "reliability"]) => reliability(state, req, id),
        ("GET", ["projects", id, "spc"]) => spc(state, req, id),
        ("GET", ["projects", id, "monitor"]) => project_monitor(state, id),
        ("GET", ["monitor", "status"]) => monitor_status(state),
        ("GET", ["monitor", "alerts"]) => monitor_alerts(state, req),
        ("GET", ["monitor", "wait"]) => monitor_wait(state, req),
        ("GET" | "PUT" | "POST", _) => error_response(404, "no such route"),
        _ => error_response(405, "method not allowed"),
    }
}

fn summary_json(summary: &crate::registry::ProjectSummary, fitted_version: Option<u64>) -> String {
    format!(
        "{{\"id\": {}, \"kind\": {}, \"model\": {}, \"prior\": {}, \"version\": {}, \
         \"event_count\": {}, \"observation_end\": {}, \"fitted_version\": {}}}",
        jstr(&summary.id),
        jstr(summary.kind),
        jstr(&summary.model),
        jstr(&summary.prior),
        summary.version,
        summary.event_count,
        jnum(summary.observation_end),
        match fitted_version {
            Some(v) => v.to_string(),
            None => "null".to_string(),
        },
    )
}

fn list_projects(state: &AppState) -> Response {
    let entries: Vec<String> = state
        .registry
        .all()
        .iter()
        .map(|p| summary_json(&p.summary(), cached_fit(p).map(|c| c.version)))
        .collect();
    Response::json(200, format!("{{\"projects\": [{}]}}", entries.join(", ")))
}

fn create_project(state: &AppState, req: &Request, id: &str) -> Response {
    let kind = req.param("kind").unwrap_or("times");
    let Some(model) = req.param("model") else {
        return error_response(400, "missing 'model' parameter");
    };
    let Some(prior) = req.param("prior") else {
        return error_response(400, "missing 'prior' parameter");
    };
    let config = match ProjectConfig::from_labels(kind, model, prior) {
        Ok(c) => c,
        Err(message) => return error_response(400, &message),
    };
    match state.registry.create(id, config) {
        Ok(CreateOutcome::Created) => Response::json(
            201,
            format!("{{\"created\": {}, \"existed\": false}}", jstr(id)),
        ),
        Ok(CreateOutcome::AlreadyExists) => Response::json(
            200,
            format!("{{\"created\": {}, \"existed\": true}}", jstr(id)),
        ),
        Err(err) => registry_error(&err),
    }
}

fn project_summary(state: &AppState, id: &str) -> Response {
    match state.registry.get(id) {
        Some(project) => Response::json(
            200,
            summary_json(&project.summary(), cached_fit(&project).map(|c| c.version)),
        ),
        None => error_response(404, &format!("unknown project '{id}'")),
    }
}

fn ingest_events(state: &AppState, req: &Request, id: &str) -> Response {
    let Some(project) = state.registry.get(id) else {
        return error_response(404, &format!("unknown project '{id}'"));
    };
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return error_response(400, "body must be UTF-8 CSV");
    };
    match project.ingest(text) {
        Ok(added) => {
            state
                .metrics
                .events_ingested
                .fetch_add(added, std::sync::atomic::Ordering::Relaxed);
            // The monitoring hook on the event path: score the new gaps
            // against the cached posterior and surface any change-point
            // alerts they fired right in the ingest response.
            let monitor_field = if state.monitor.is_some() {
                let alerts = crate::monitor::observe_ingest(state, &project);
                format!(", \"alerts\": {alerts}")
            } else {
                String::new()
            };
            Response::json(
                200,
                format!(
                    "{{\"ingested\": {added}, \"version\": {}{monitor_field}}}",
                    project.version()
                ),
            )
        }
        Err(err) => registry_error(&err),
    }
}

/// Runs (or joins, or cache-hits) the fit for the current data version.
fn current_fit(
    state: &AppState,
    id: &str,
) -> Result<(std::sync::Arc<crate::scheduler::CachedFit>, std::sync::Arc<crate::registry::Project>), Response> {
    let Some(project) = state.registry.get(id) else {
        return Err(error_response(404, &format!("unknown project '{id}'")));
    };
    match ensure_fit(&project, &state.fit, &state.metrics) {
        Ok(cached) => {
            // Register the access with the LRU bound; this may evict
            // the coldest cached posterior elsewhere.
            state.cache.touch(&project, &state.metrics);
            Ok((cached, project))
        }
        Err(err) => Err(fit_serve_error(state, &err)),
    }
}

/// The status-check fit source: the cached posterior when one exists —
/// stale by design, since control limits for the newest events must
/// come from the fit computed *before* them — falling back to one
/// coalesced fit only for a never-fitted project. Repeated status
/// queries therefore cost zero refits regardless of ingest churn.
fn cached_or_fit(
    state: &AppState,
    project: &std::sync::Arc<crate::registry::Project>,
) -> Result<std::sync::Arc<crate::scheduler::CachedFit>, Response> {
    if let Some(cached) = cached_fit(project) {
        state.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
        state.cache.touch(project, &state.metrics);
        return Ok(cached);
    }
    match ensure_fit(project, &state.fit, &state.metrics) {
        Ok(cached) => {
            state.cache.touch(project, &state.metrics);
            Ok(cached)
        }
        Err(err) => Err(fit_serve_error(state, &err)),
    }
}

fn fit_summary(state: &AppState, id: &str) -> Response {
    let (cached, _) = match current_fit(state, id) {
        Ok(pair) => pair,
        Err(resp) => return resp,
    };
    let report = &cached.fit.report;
    let posterior = &cached.fit.posterior;
    let warnings: Vec<String> = report.warnings.iter().map(|w| jstr(w)).collect();
    let tier = match report.fallback_tier() {
        Some(t) => jstr(t),
        None => "null".to_string(),
    };
    let mean_n = match posterior.mean_n() {
        Some(v) => jnum(v),
        None => "null".to_string(),
    };
    Response::json(
        200,
        format!(
            "{{\"data_version\": {}, \"method\": {}, \"provenance\": {}, \"attempts\": {}, \
             \"warm_started\": {}, \"budget_exhausted\": {}, \"fallback_tier\": {}, \
             \"warnings\": [{}], \"mean_omega\": {}, \"sd_omega\": {}, \"mean_beta\": {}, \
             \"sd_beta\": {}, \"covariance\": {}, \"mean_n\": {}}}",
            cached.version,
            jstr(posterior.method_name()),
            jstr(report.provenance),
            report.total_attempts(),
            cached.warm_started,
            report.budget_exhausted(),
            tier,
            warnings.join(", "),
            jnum(posterior.mean_omega()),
            jnum(posterior.var_omega().sqrt()),
            jnum(posterior.mean_beta()),
            jnum(posterior.var_beta().sqrt()),
            jnum(posterior.covariance()),
            mean_n,
        ),
    )
}

fn interval(state: &AppState, req: &Request, id: &str) -> Response {
    let level = match parse_f64(req, "level", 0.99) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    if let Err(resp) = check_level(level) {
        return resp;
    }
    let param = req.param("param").unwrap_or("omega");
    let (cached, project) = match current_fit(state, id) {
        Ok(pair) => pair,
        Err(resp) => return resp,
    };
    let posterior = &cached.fit.posterior;
    let applied = match resolve_calibration(state, &project, posterior.method_name(), req) {
        Ok(applied) => applied,
        Err(resp) => return resp,
    };
    let (raw, median) = match param {
        "omega" => (
            posterior.credible_interval_omega(level),
            posterior.quantile_omega(0.5),
        ),
        "beta" => (
            posterior.credible_interval_beta(level),
            posterior.quantile_beta(0.5),
        ),
        other => return error_response(400, &format!("unknown param '{other}' (omega|beta)")),
    };
    let (lo, hi) = match &applied {
        Some(a) => a.cal.interval(median, raw, 0.0),
        None => raw,
    };
    Response::json(
        200,
        format!(
            "{{\"param\": {}, \"level\": {}, \"lo\": {}, \"hi\": {}, \"calibrated\": {}, \
             \"calibration\": {}, \"data_version\": {}}}",
            jstr(param),
            jnum(level),
            jnum(lo),
            jnum(hi),
            applied.is_some(),
            calibration_json(state, applied.as_ref()),
            cached.version,
        ),
    )
}

fn band(state: &AppState, req: &Request, id: &str) -> Response {
    let level = match parse_f64(req, "level", 0.99) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    if let Err(resp) = check_level(level) {
        return resp;
    }
    let points = match parse_f64(req, "points", 20.0) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    if !(2.0..=512.0).contains(&points) {
        return error_response(400, "points must be in [2, 512]");
    }
    let (cached, project) = match current_fit(state, id) {
        Ok(pair) => pair,
        Err(resp) => return resp,
    };
    let applied =
        match resolve_calibration(state, &project, cached.fit.posterior.method_name(), req) {
            Ok(applied) => applied,
            Err(resp) => return resp,
        };
    let t_end = project.summary().observation_end;
    let n = points as usize;
    let grid: Vec<f64> = (1..=n).map(|i| t_end * i as f64 / n as f64).collect();
    match cached.fit.posterior.mean_value_band(&grid, level) {
        Some(Ok(mut band)) => {
            if let Some(a) = &applied {
                a.cal.apply_band(&mut band);
            }
            let rows: Vec<String> = band
                .iter()
                .map(|p| {
                    format!(
                        "{{\"t\": {}, \"lower\": {}, \"mean\": {}, \"upper\": {}}}",
                        jnum(p.t),
                        jnum(p.lower),
                        jnum(p.mean),
                        jnum(p.upper)
                    )
                })
                .collect();
            Response::json(
                200,
                format!(
                    "{{\"level\": {}, \"band\": [{}], \"calibrated\": {}, \
                     \"calibration\": {}, \"data_version\": {}}}",
                    jnum(level),
                    rows.join(", "),
                    applied.is_some(),
                    calibration_json(state, applied.as_ref()),
                    cached.version
                ),
            )
        }
        Some(Err(err)) => error_response(500, &err.to_string()),
        None => error_response(
            409,
            &format!(
                "the posterior was produced by the '{}' fallback tier, which has no \
                 mixture representation to integrate a band over",
                cached.fit.report.provenance
            ),
        ),
    }
}

fn predict(state: &AppState, req: &Request, id: &str) -> Response {
    let level = match parse_f64(req, "level", 0.99) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    if let Err(resp) = check_level(level) {
        return resp;
    }
    let window = match parse_f64(req, "window", 0.0) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    if window.is_nan() || window <= 0.0 {
        return error_response(400, "window must be positive");
    }
    let (cached, project) = match current_fit(state, id) {
        Ok(pair) => pair,
        Err(resp) => return resp,
    };
    let t = project.summary().observation_end;
    match cached.fit.posterior.predictive_failures(t, window) {
        Ok(counts) => {
            let interval = match counts.interval(level) {
                Some((lo, hi)) => format!("[{lo}, {hi}]"),
                None => "null".to_string(),
            };
            Response::json(
                200,
                format!(
                    "{{\"t\": {}, \"window\": {}, \"mean\": {}, \"variance\": {}, \
                     \"prob_zero\": {}, \"level\": {}, \"interval\": {}, \"data_version\": {}}}",
                    jnum(t),
                    jnum(window),
                    jnum(counts.mean()),
                    jnum(counts.variance()),
                    jnum(counts.prob_zero()),
                    jnum(level),
                    interval,
                    cached.version,
                ),
            )
        }
        Err(err) => error_response(500, &err.to_string()),
    }
}

fn reliability(state: &AppState, req: &Request, id: &str) -> Response {
    let level = match parse_f64(req, "level", 0.99) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    if let Err(resp) = check_level(level) {
        return resp;
    }
    let window = match parse_f64(req, "window", 0.0) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    if window.is_nan() || window <= 0.0 {
        return error_response(400, "window must be positive");
    }
    let (cached, project) = match current_fit(state, id) {
        Ok(pair) => pair,
        Err(resp) => return resp,
    };
    let t = project.summary().observation_end;
    let point = cached.fit.posterior.reliability_point(t, window);
    let (lo, hi) = cached.fit.posterior.reliability_interval(t, window, level);
    Response::json(
        200,
        format!(
            "{{\"t\": {}, \"window\": {}, \"point\": {}, \"level\": {}, \"lo\": {}, \
             \"hi\": {}, \"data_version\": {}}}",
            jnum(t),
            jnum(window),
            jnum(point),
            jnum(level),
            jnum(lo),
            jnum(hi),
            cached.version,
        ),
    )
}

/// SPC control-limit check on the newest inter-failure time (ordered
/// statistics chart of Rao et al.): the plotted statistic is
/// `p = P(T ≤ τ | D) = 1 − E[R(t_{m−1} + τ | t_{m−1})]` — the posterior
/// probability of seeing the newest gap `τ` or shorter. `p` below the
/// LCL means failures are arriving much faster than the fitted process
/// predicts (reliability deterioration); above the UCL, much slower
/// (significant improvement). Sourced from the version-keyed fit cache
/// via [`cached_or_fit`]: status checks never trigger refits of their
/// own once a posterior exists.
fn spc(state: &AppState, req: &Request, id: &str) -> Response {
    let Some(project) = state.registry.get(id) else {
        return error_response(404, &format!("unknown project '{id}'"));
    };
    let Some((t_prev, t_last)) = project.newest_gap() else {
        return error_response(
            409,
            "SPC needs a times project with at least two recorded failures",
        );
    };
    let cached = match cached_or_fit(state, &project) {
        Ok(cached) => cached,
        Err(resp) => return resp,
    };
    let applied =
        match resolve_calibration(state, &project, cached.fit.posterior.method_name(), req) {
            Ok(applied) => applied,
            Err(resp) => return resp,
        };
    let tau = t_last - t_prev;
    // An under-dispersed posterior reports the observed gap as more
    // extreme than a calibrated one would; the spread factor maps onto
    // the chart as a contraction of the statistic towards the centre
    // line, so calibrated control limits alarm at the rate the regime's
    // measured coverage supports.
    let raw = 1.0 - cached.fit.posterior.reliability_point(t_prev, tau);
    let p = match &applied {
        Some(a) => a.cal.spc_statistic(raw, SPC_CL),
        None => raw,
    };
    Response::json(
        200,
        format!(
            "{{\"t_prev\": {}, \"t_last\": {}, \"gap\": {}, \"p\": {}, \"lcl\": {}, \
             \"cl\": {}, \"ucl\": {}, \"status\": {}, \"calibrated\": {}, \
             \"calibration\": {}, \"data_version\": {}}}",
            jnum(t_prev),
            jnum(t_last),
            jnum(tau),
            jnum(p),
            jnum(SPC_LCL),
            jnum(SPC_CL),
            jnum(SPC_UCL),
            jstr(classify(p).as_str()),
            applied.is_some(),
            calibration_json(state, applied.as_ref()),
            cached.version,
        ),
    )
}

// ---------------------------------------------------------------------
// Streaming-monitor routes.
// ---------------------------------------------------------------------

fn point_json(p: &ChartPoint) -> String {
    format!(
        "{{\"index\": {}, \"fit_version\": {}, \"lane_width\": {}, \"t_prev\": {}, \
         \"t\": {}, \"p_os\": {}, \"p_mmle\": {}, \"status_os\": {}, \"status_mmle\": {}}}",
        p.index,
        p.fit_version,
        p.lane_width,
        jnum(p.t_prev),
        jnum(p.t),
        jnum(p.p_os),
        jnum(p.p_mmle),
        jstr(p.status_os.as_str()),
        jstr(p.status_mmle.as_str()),
    )
}

fn alert_json(a: &Alert) -> String {
    format!(
        "{{\"seq\": {}, \"project\": {}, \"scheme\": {}, \"side\": {}, \"run\": {}, \
         \"index\": {}, \"t\": {}, \"p\": {}, \"fit_version\": {}, \"refit_version\": {}}}",
        a.seq,
        jstr(&a.project),
        jstr(a.scheme.as_str()),
        jstr(a.side.as_str()),
        a.run,
        a.index,
        jnum(a.t),
        jnum(a.p),
        a.fit_version,
        match a.refit_version {
            Some(v) => v.to_string(),
            None => "null".to_string(),
        },
    )
}

fn run_json(run: Option<(ChartStatus, u32)>) -> String {
    match run {
        Some((side, length)) => format!(
            "{{\"side\": {}, \"length\": {length}}}",
            jstr(side.as_str())
        ),
        None => "null".to_string(),
    }
}

fn snapshot_json(snap: &ChartSnapshot) -> String {
    let tail: Vec<String> = snap.tail.iter().map(point_json).collect();
    format!(
        "{{\"scored_through\": {}, \"counts_os\": [{}, {}, {}], \
         \"counts_mmle\": [{}, {}, {}], \"run_os\": {}, \"run_mmle\": {}, \
         \"last\": {}, \"tail\": [{}]}}",
        snap.scored_through,
        snap.counts_os[0],
        snap.counts_os[1],
        snap.counts_os[2],
        snap.counts_mmle[0],
        snap.counts_mmle[1],
        snap.counts_mmle[2],
        run_json(snap.run_os),
        run_json(snap.run_mmle),
        match &snap.last {
            Some(p) => point_json(p),
            None => "null".to_string(),
        },
        tail.join(", "),
    )
}

fn alerts_body(alerts: &[Alert], next_since: u64, dropped: bool) -> String {
    let rows: Vec<String> = alerts.iter().map(alert_json).collect();
    format!(
        "{{\"alerts\": [{}], \"next_since\": {next_since}, \"dropped\": {dropped}}}",
        rows.join(", ")
    )
}

fn monitor_disabled() -> Response {
    error_response(
        409,
        "monitoring is disabled (start the server with --monitor)",
    )
}

/// One project's chart. Scores any events the ingest path could not
/// (no posterior yet, or alerts deferred) before snapshotting, so the
/// response always reflects every acknowledged event.
fn project_monitor(state: &AppState, id: &str) -> Response {
    let Some(monitor) = &state.monitor else {
        return monitor_disabled();
    };
    let Some(project) = state.registry.get(id) else {
        return error_response(404, &format!("unknown project '{id}'"));
    };
    if project.times_from(0).is_none() {
        return error_response(409, "monitoring requires a times project");
    }
    let alerts = match crate::monitor::catch_up(state, &project) {
        Ok(n) => n,
        Err(err) => return fit_serve_error(state, &err),
    };
    let snap = monitor.snapshot(id);
    Response::json(
        200,
        format!(
            "{{\"project\": {}, \"scheme\": {}, \"run_length\": {}, \"lcl\": {}, \
             \"cl\": {}, \"ucl\": {}, \"alerts_fired\": {alerts}, \"chart\": {}}}",
            jstr(id),
            jstr(monitor.config().schemes.as_str()),
            monitor.config().run_length,
            jnum(SPC_LCL),
            jnum(SPC_CL),
            jnum(SPC_UCL),
            snapshot_json(&snap),
        ),
    )
}

fn monitor_status(state: &AppState) -> Response {
    let Some(monitor) = &state.monitor else {
        return monitor_disabled();
    };
    let charts: Vec<String> = monitor
        .charts()
        .iter()
        .map(|(id, snap)| {
            format!(
                "{{\"project\": {}, \"chart\": {}}}",
                jstr(id),
                snapshot_json(snap)
            )
        })
        .collect();
    Response::json(
        200,
        format!(
            "{{\"scheme\": {}, \"run_length\": {}, \"total_alerts\": {}, \"charts\": [{}]}}",
            jstr(monitor.config().schemes.as_str()),
            monitor.config().run_length,
            monitor.total_alerts(),
            charts.join(", "),
        ),
    )
}

fn monitor_alerts(state: &AppState, req: &Request) -> Response {
    let Some(monitor) = &state.monitor else {
        return monitor_disabled();
    };
    let since = match parse_u64(req, "since", 0) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let (alerts, next_since, dropped) = monitor.alerts_since(since);
    Response::json(200, alerts_body(&alerts, next_since, dropped))
}

/// Long-poll subscription: blocks (bounded by [`MAX_WAIT_MS`]) until an
/// alert newer than the `since` cursor exists. An empty `alerts` array
/// means the wait timed out; the client re-polls with the same cursor.
fn monitor_wait(state: &AppState, req: &Request) -> Response {
    let Some(monitor) = &state.monitor else {
        return monitor_disabled();
    };
    let since = match parse_u64(req, "since", 0) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let timeout_ms = match parse_f64(req, "timeout_ms", 15_000.0) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    if !(0.0..=MAX_WAIT_MS).contains(&timeout_ms) {
        return error_response(
            400,
            &format!("timeout_ms must be in [0, {MAX_WAIT_MS}]"),
        );
    }
    let (alerts, next_since, dropped) =
        monitor.wait_alerts(since, Duration::from_millis(timeout_ms as u64));
    if alerts.is_empty() {
        state
            .metrics
            .monitor_wait_timeouts
            .fetch_add(1, Ordering::Relaxed);
    } else {
        state
            .metrics
            .monitor_wait_delivered
            .fetch_add(1, Ordering::Relaxed);
    }
    Response::json(200, alerts_body(&alerts, next_since, dropped))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use crate::scheduler::FitSettings;
    use nhpp_data::sys17;
    use std::collections::BTreeMap;

    fn state() -> AppState {
        AppState {
            registry: Registry::open(None).unwrap(),
            metrics: crate::Metrics::new(),
            fit: FitSettings::default(),
            cache: crate::scheduler::FitCache::new(0),
            retry_after_secs: 1,
            calibration: None,
            monitor: None,
            quiet: true,
        }
    }

    fn get(path: &str) -> Request {
        request("GET", path, "")
    }

    fn request(method: &str, path_and_query: &str, body: &str) -> Request {
        let (path, query_text) = match path_and_query.split_once('?') {
            Some((p, q)) => (p, q),
            None => (path_and_query, ""),
        };
        let mut query = BTreeMap::new();
        for pair in query_text.split('&').filter(|p| !p.is_empty()) {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            query.insert(k.to_string(), v.to_string());
        }
        Request {
            method: method.to_string(),
            path: path.to_string(),
            query,
            body: body.as_bytes().to_vec(),
        }
    }

    fn sys17_batch() -> String {
        let mut text = format!("# t_end={}\n", sys17::T_END);
        for t in sys17::FAILURE_TIMES {
            text.push_str(&format!("{t}\n"));
        }
        text
    }

    fn extract_num(body: &str, key: &str) -> f64 {
        let marker = format!("\"{key}\": ");
        let start = body.find(&marker).unwrap_or_else(|| {
            panic!("key {key} not in {body}");
        }) + marker.len();
        let rest = &body[start..];
        let end = rest.find([',', '}', ']']).unwrap();
        rest[..end].trim().parse().unwrap()
    }

    #[test]
    fn health_and_unknown_routes() {
        let state = state();
        assert_eq!(handle(&state, &get("/healthz")).status, 200);
        assert_eq!(handle(&state, &get("/nope")).status, 404);
        assert_eq!(
            handle(&state, &request("DELETE", "/projects/x", "")).status,
            405
        );
    }

    #[test]
    fn full_project_lifecycle_over_routes() {
        let state = state();
        let create = handle(
            &state,
            &request(
                "PUT",
                "/projects/sys17?kind=times&model=go&prior=paper-info-times",
                "",
            ),
        );
        assert_eq!(create.status, 201, "{}", create.body);
        // Idempotent re-create.
        assert_eq!(
            handle(
                &state,
                &request(
                    "PUT",
                    "/projects/sys17?kind=times&model=go&prior=paper-info-times",
                    "",
                ),
            )
            .status,
            200
        );

        let ingest = handle(
            &state,
            &request("POST", "/projects/sys17/events", &sys17_batch()),
        );
        assert_eq!(ingest.status, 200, "{}", ingest.body);
        assert!(ingest.body.contains("\"ingested\": 38"));

        let fit = handle(&state, &get("/projects/sys17/fit"));
        assert_eq!(fit.status, 200, "{}", fit.body);
        assert!(fit.body.contains("\"provenance\": \"vb2\""));
        assert!(fit.body.contains("\"warm_started\": false"));

        // The served interval equals the library's batch fit exactly
        // (same code path, same data).
        let direct = nhpp_vb::Vb2Posterior::fit(
            nhpp_models::ModelSpec::goel_okumoto(),
            nhpp_models::prior::NhppPrior::paper_info_times(),
            &sys17::failure_times().into(),
            nhpp_vb::Vb2Options::default(),
        )
        .unwrap();
        let interval = handle(
            &state,
            &get("/projects/sys17/interval?param=omega&level=0.99"),
        );
        assert_eq!(interval.status, 200);
        let (lo, hi) = direct.credible_interval_omega(0.99);
        assert_eq!(extract_num(&interval.body, "lo"), lo);
        assert_eq!(extract_num(&interval.body, "hi"), hi);

        let rel = handle(
            &state,
            &get("/projects/sys17/reliability?window=1000&level=0.99"),
        );
        assert_eq!(rel.status, 200, "{}", rel.body);
        assert_eq!(
            extract_num(&rel.body, "point"),
            direct.reliability_point(sys17::T_END, 1000.0)
        );

        let predict = handle(&state, &get("/projects/sys17/predict?window=86400"));
        assert_eq!(predict.status, 200, "{}", predict.body);
        assert!(extract_num(&predict.body, "mean") > 0.0);

        let band = handle(&state, &get("/projects/sys17/band?points=5&level=0.9"));
        assert_eq!(band.status, 200, "{}", band.body);
        assert!(band.body.matches("\"t\":").count() == 5);

        let spc = handle(&state, &get("/projects/sys17/spc"));
        assert_eq!(spc.status, 200, "{}", spc.body);
        let p = extract_num(&spc.body, "p");
        assert!(p > 0.0 && p < 1.0, "p={p}");
        assert!(spc.body.contains("\"status\": \"in-control\""), "{}", spc.body);

        // All those queries ran exactly one fit.
        let fits = state
            .metrics
            .fits_total
            .load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(fits, 1, "queries were served from the cached posterior");

        let metrics = handle(&state, &get("/metrics"));
        assert_eq!(metrics.status, 200);
        assert!(
            crate::metrics::scrape_counter(&metrics.body, "nhpp_serve_fits_total") == Some(1)
        );
    }

    fn monitor_state(run_length: u32) -> AppState {
        let mut s = state();
        s.monitor = Some(std::sync::Arc::new(crate::monitor::Monitor::new(
            crate::monitor::MonitorConfig {
                run_length,
                ..crate::monitor::MonitorConfig::default()
            },
            None,
        )));
        s
    }

    #[test]
    fn spc_reads_cached_fit_without_refitting() {
        let state = state();
        handle(
            &state,
            &request(
                "PUT",
                "/projects/p?kind=times&model=go&prior=paper-info-times",
                "",
            ),
        );
        handle(
            &state,
            &request("POST", "/projects/p/events", &sys17_batch()),
        );
        assert_eq!(handle(&state, &get("/projects/p/fit")).status, 200);
        let fits = |state: &AppState| {
            state
                .metrics
                .fits_total
                .load(std::sync::atomic::Ordering::Relaxed)
        };
        assert_eq!(fits(&state), 1);
        // New events bump the data version; the fit is now stale.
        let t_end = sys17::T_END;
        let batch = format!("# t_end={}\n{}\n{}\n", t_end + 200.0, t_end + 50.0, t_end + 100.0);
        assert_eq!(
            handle(&state, &request("POST", "/projects/p/events", &batch)).status,
            200
        );
        // N status queries, zero extra fits: the check deliberately
        // reads the posterior fitted before the events under test.
        for _ in 0..5 {
            let resp = handle(&state, &get("/projects/p/spc"));
            assert_eq!(resp.status, 200, "{}", resp.body);
            assert_eq!(extract_num(&resp.body, "data_version") as u64, 1);
        }
        assert_eq!(fits(&state), 1, "spc status checks must not refit");
        assert!(
            state
                .metrics
                .cache_hits
                .load(std::sync::atomic::Ordering::Relaxed)
                >= 5
        );
    }

    #[test]
    fn monitor_routes_are_409_when_disabled() {
        let state = state();
        for path in [
            "/monitor/status",
            "/monitor/alerts",
            "/monitor/wait?timeout_ms=1",
            "/projects/x/monitor",
        ] {
            let resp = handle(&state, &get(path));
            assert_eq!(resp.status, 409, "{path}: {}", resp.body);
            assert!(resp.body.contains("--monitor"), "{}", resp.body);
        }
    }

    #[test]
    fn ingest_scores_chart_and_regime_shift_raises_alerts() {
        let state = monitor_state(3);
        handle(
            &state,
            &request(
                "PUT",
                "/projects/p?kind=times&model=go&prior=paper-info-times",
                "",
            ),
        );
        // First ingest arrives before any fit: scoring is deferred.
        let ingest = handle(
            &state,
            &request("POST", "/projects/p/events", &sys17_batch()),
        );
        assert!(ingest.body.contains("\"alerts\": 0"), "{}", ingest.body);
        assert_eq!(
            state
                .metrics
                .monitor_deferred
                .load(std::sync::atomic::Ordering::Relaxed),
            1
        );
        // The chart route catches up: fits once, scores every gap.
        let chart = handle(&state, &get("/projects/p/monitor"));
        assert_eq!(chart.status, 200, "{}", chart.body);
        assert_eq!(extract_num(&chart.body, "scored_through") as u64, 38);
        let n = sys17::FAILURE_TIMES.len() as u64;
        let points = state
            .metrics
            .monitor_points
            .load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(points, n - 1, "one point per gap");

        // Inject a regime shift: a burst of near-simultaneous failures
        // just past the current observation end. Each tiny gap scores
        // p ≈ λτ « LCL (deterioration side); the third consecutive one
        // trips the run threshold on both schemes. (The gap from the
        // last recorded failure into the burst may land anywhere on the
        // chart, so the burst carries four tiny gaps of its own.)
        let burst: Vec<f64> = (1..=5).map(|i| sys17::T_END + i as f64 * 0.01).collect();
        let mut batch = format!("# t_end={}\n", sys17::T_END + 1.0);
        for t in &burst {
            batch.push_str(&format!("{t}\n"));
        }
        let ingest = handle(&state, &request("POST", "/projects/p/events", &batch));
        assert_eq!(ingest.status, 200, "{}", ingest.body);
        assert!(
            ingest.body.contains("\"alerts\": 2"),
            "os + mmle alerts expected: {}",
            ingest.body
        );
        assert!(
            state
                .metrics
                .monitor_alerts
                .load(std::sync::atomic::Ordering::Relaxed)
                == 2
        );

        // The subscription surfaces them; the long-poll returns at once.
        let alerts = handle(&state, &get("/monitor/alerts?since=0"));
        assert_eq!(alerts.status, 200);
        assert!(
            alerts.body.contains("\"side\": \"deterioration-alarm\""),
            "{}",
            alerts.body
        );
        assert_eq!(extract_num(&alerts.body, "next_since") as u64, 2);
        let wait = handle(&state, &get("/monitor/wait?since=0&timeout_ms=25000"));
        assert_eq!(wait.status, 200);
        assert!(wait.body.contains("\"seq\": 1"), "{}", wait.body);
        assert_eq!(
            state
                .metrics
                .monitor_wait_delivered
                .load(std::sync::atomic::Ordering::Relaxed),
            1
        );
        // A caught-up cursor times out empty.
        let wait = handle(&state, &get("/monitor/wait?since=2&timeout_ms=1"));
        assert!(wait.body.contains("\"alerts\": []"), "{}", wait.body);
        assert_eq!(
            state
                .metrics
                .monitor_wait_timeouts
                .load(std::sync::atomic::Ordering::Relaxed),
            1
        );

        // Global status sees the chart and the alert total.
        let status = handle(&state, &get("/monitor/status"));
        assert_eq!(status.status, 200);
        assert_eq!(extract_num(&status.body, "total_alerts") as u64, 2);
        assert!(status.body.contains("\"project\": \"p\""), "{}", status.body);

        // Validation still bites.
        assert_eq!(
            handle(&state, &get("/monitor/wait?timeout_ms=60000")).status,
            400
        );
        assert_eq!(
            handle(&state, &get("/monitor/alerts?since=x")).status,
            400
        );
    }

    #[test]
    fn validation_errors_are_4xx() {
        let state = state();
        assert_eq!(
            handle(&state, &request("PUT", "/projects/bad id!", "")).status,
            400
        );
        assert_eq!(
            handle(
                &state,
                &request("PUT", "/projects/x?model=weibull&prior=flat", "")
            )
            .status,
            400
        );
        assert_eq!(handle(&state, &get("/projects/ghost/fit")).status, 404);

        handle(
            &state,
            &request(
                "PUT",
                "/projects/p?kind=times&model=go&prior=paper-info-times",
                "",
            ),
        );
        // No data yet: fitting is a 400, not a crash.
        assert_eq!(handle(&state, &get("/projects/p/fit")).status, 400);
        handle(
            &state,
            &request("POST", "/projects/p/events", "# t_end=10\n1.0\n2.0\n"),
        );
        assert_eq!(
            handle(&state, &get("/projects/p/interval?level=1.5")).status,
            400
        );
        assert_eq!(
            handle(&state, &get("/projects/p/interval?param=sigma")).status,
            400
        );
        assert_eq!(
            handle(&state, &get("/projects/p/predict?window=-1")).status,
            400
        );
        // Malformed batch.
        assert_eq!(
            handle(&state, &request("POST", "/projects/p/events", "nonsense")).status,
            400
        );
    }

    #[test]
    fn fit_failure_surfaces_budget_and_tier_in_body() {
        let mut state = state();
        let mut options = nhpp_vb::RobustOptions::strict();
        options.base.total_budget = Some(1);
        options.retry.max_attempts = 1;
        state.fit = FitSettings {
            options,
            threads: 1,
            deadline: None,
        };
        handle(
            &state,
            &request(
                "PUT",
                "/projects/p?kind=times&model=go&prior=paper-info-times",
                "",
            ),
        );
        handle(
            &state,
            &request("POST", "/projects/p/events", &sys17_batch()),
        );
        let resp = handle(&state, &get("/projects/p/fit"));
        assert_eq!(resp.status, 503, "{}", resp.body);
        assert!(
            resp.body.contains("\"budget_exhausted\": true"),
            "{}",
            resp.body
        );
        assert!(resp.body.contains("\"kind\": \"budget-exhausted\""));
        assert!(resp.body.contains("\"fallback_tier\": null"));
        // Budget exhaustion is a load signal: the response tells the
        // client when to come back.
        assert_eq!(resp.retry_after, Some(1));
    }

    #[test]
    fn deadline_exceeded_maps_to_503_with_retry_after() {
        let state = state();
        let resp = fit_serve_error(&state, &FitServeError::DeadlineExceeded);
        assert_eq!(resp.status, 503);
        assert_eq!(resp.retry_after, Some(1));
        assert!(resp.body.contains("\"kind\": \"deadline\""), "{}", resp.body);
    }

    #[test]
    fn expired_request_deadline_fails_fast_over_routes() {
        let mut state = state();
        state.fit.deadline = Some(std::time::Duration::ZERO);
        handle(
            &state,
            &request(
                "PUT",
                "/projects/p?kind=times&model=go&prior=paper-info-times",
                "",
            ),
        );
        handle(
            &state,
            &request("POST", "/projects/p/events", &sys17_batch()),
        );
        let resp = handle(&state, &get("/projects/p/fit"));
        assert_eq!(resp.status, 503, "{}", resp.body);
        assert!(
            resp.body.contains("budget_exhausted") || resp.body.contains("deadline"),
            "{}",
            resp.body
        );
        assert_eq!(resp.retry_after, Some(1), "{}", resp.body);
    }

    #[test]
    fn metrics_route_exposes_durability_counters() {
        let state = state();
        let resp = handle(&state, &get("/metrics"));
        assert_eq!(resp.status, 200);
        assert_eq!(
            crate::metrics::scrape_counter(&resp.body, "nhpp_serve_recovery_torn_tails_total"),
            Some(0),
            "{}",
            resp.body
        );
        assert_eq!(
            crate::metrics::scrape_counter(&resp.body, "nhpp_serve_requests_shed_total"),
            Some(0)
        );
    }
}
