//! The traced run: the same operation sequence against the traced
//! service, then replays of each layer's public function on the
//! workload's own data, reduced to one number per layer.

use crate::gen::Kind;
use crate::run::{self, Live, Measured, Metric, J};
use crate::stats::{self, Reported, Tally};
use crate::trace::{self, Span, Tracer};
use crate::Args;
use nhpp_data::ObservedData;
use nhpp_models::prior::NhppPrior;
use nhpp_models::spc::{mmle_statistic, ordered_statistic};
use nhpp_models::Posterior as _;
use nhpp_serve::http::read_request;
use nhpp_serve::scheduler::{cached_fit, ensure_fit, FitSettings};
use nhpp_serve::storage::frame_record;
use nhpp_serve::{routes, DurabilityPolicy, FsStorage, Metrics, Registry, Storage as _};
use nhpp_vb::{fit_supervised_warm, RobustOptions, RobustPosterior, Truncation};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Replay rounds per project: each appends one more generated batch.
const ROUNDS: usize = 5;
/// Gaps scored per round on failure-time projects.
const SCORED_GAPS: usize = 3;
/// In-process calls per route the workload's own ops do not reach.
const ROUTE_REPLAYS: usize = 20;
/// Rounds of the reliability-interval, predictive and band replays,
/// which cost seconds each; no new round starts after the budget.
const SLOW_QUERY_ROUNDS: usize = 5;
const SLOW_QUERY_BUDGET_S: f64 = 15.0;
/// Boots of a registry from the workload's data dir.
const REGISTRY_REPLAYS: usize = 21;
/// The routes whose `routes::handle` time is reported.
const ROUTES: [&str; 4] = ["events", "fit", "interval", "spc"];

/// The scheduler's per-fit options, as `scheduler::ensure_fit` derives
/// them (flat priors cap the adaptive truncation), so a replayed fit is
/// the fit the service runs.
fn fit_options(settings: &FitSettings, prior: &NhppPrior, data: &ObservedData) -> RobustOptions {
    let mut options = settings.options;
    options.total_deadline = settings.deadline;
    options.base.threads = settings.threads;
    if prior.omega.is_flat() || prior.beta.is_flat() {
        options.base.truncation = Truncation::AdaptiveCapped {
            epsilon: 5e-15,
            cap: (5 * data.total_count() as u64).max(100),
        };
    }
    options
}

fn data_text(data: &ObservedData) -> String {
    let mut out = Vec::new();
    let written = match data {
        ObservedData::Times(d) => nhpp_data::io::write_failure_times(&mut out, d),
        ObservedData::Grouped(d) => nhpp_data::io::write_grouped(&mut out, d),
    };
    written.expect("writing to memory cannot fail");
    String::from_utf8(out).expect("CSV is UTF-8")
}

#[derive(Default)]
struct FitCounts {
    iterations: Vec<f64>,
    components: Vec<f64>,
    attempts: Vec<f64>,
    fits: u64,
    fallbacks: u64,
}

impl FitCounts {
    fn add(&mut self, fit: &nhpp_vb::RobustFit, warm: bool) {
        self.fits += 1;
        if fit.report.fallback_tier().is_some() {
            self.fallbacks += 1;
        }
        if let RobustPosterior::Vb2(p) = &fit.posterior {
            if warm {
                self.iterations.push(p.inner_iterations() as f64);
                self.attempts.push(fit.report.total_attempts() as f64);
            } else {
                self.components.push(p.mixture().len() as f64);
            }
        }
    }
}

/// Replays each layer below the routes on every project's data, in a
/// scratch registry and storage under `root`.
fn replay_layers(
    live: &Live,
    next_batch: &BTreeMap<usize, usize>,
    root: &Path,
    tracer: &Tracer,
) -> Result<(FitCounts, Vec<f64>), String> {
    let state = live.service.state();
    let settings = state.fit;
    let mut counts = FitCounts::default();
    let mut frame_bytes = Vec::new();
    for (i, p) in live.projects.iter().enumerate() {
        let project = state
            .registry
            .get(&p.id)
            .ok_or_else(|| format!("{} vanished", p.id))?;
        let (version, data, spec, prior) = project.snapshot().map_err(|e| e.to_string())?;
        let dir = root.join(format!("replay-{i}"));
        let storage = Arc::new(FsStorage::open(&dir.join("registry")).map_err(|e| e.to_string())?);
        let registry =
            Registry::open_with(storage, DurabilityPolicy::default()).map_err(|e| e.to_string())?;
        registry
            .create(&p.id, project.config())
            .map_err(|e| e.to_string())?;
        let scratch = registry.get(&p.id).expect("just created");
        scratch
            .ingest(&data_text(&data))
            .map_err(|e| e.to_string())?;
        let log = FsStorage::open(&dir.join("append")).map_err(|e| e.to_string())?;
        let metrics = Metrics::new();
        let mut previous = ensure_fit(&scratch, &settings, &metrics)
            .map_err(|e| format!("{e:?}"))?
            .warm
            .clone();
        let first = next_batch.get(&i).copied().unwrap_or(0);
        for (r, batch) in p.future.iter().skip(first).take(ROUNDS).enumerate() {
            tracer
                .time(0, 0, "registry.ingest", || scratch.ingest(&batch.body))
                .map_err(|e| e.to_string())?;
            let frame = frame_record(
                b'B',
                format!("{}\n{}", version + 1 + r as u64, batch.body).as_bytes(),
            );
            frame_bytes.push(frame.len() as f64);
            tracer
                .time(0, 0, "storage.append", || log.append("replay.log", &frame))
                .map_err(|e| e.to_string())?;
            tracer
                .time(0, 0, "scheduler.ensure_fit", || {
                    ensure_fit(&scratch, &settings, &metrics)
                })
                .map_err(|e| format!("{e:?}"))?;
            let (_, data, _, _) = scratch.snapshot().map_err(|e| e.to_string())?;
            let options = fit_options(&settings, &prior, &data);
            // The failure report is dropped inside the span: only the
            // error message is kept.
            let fit = |warm| {
                fit_supervised_warm(spec, prior, &data, options, warm)
                    .map_err(|e| e.error.to_string())
            };
            let cold = tracer.time(0, 0, "fit.cold", || fit(None))?;
            let warm = tracer.time(0, 0, "fit.warm", || fit(previous.as_ref()))?;
            counts.add(&cold, false);
            counts.add(&warm, true);
            if let RobustPosterior::Vb2(vb2) = &cold.posterior {
                previous = Some(vb2.warm_start());
            }
            let ObservedData::Times(times) = &data else {
                continue;
            };
            let posterior = &cold.posterior;
            let t = times.times();
            for pair in t.windows(2).rev().take(SCORED_GAPS) {
                let (t_prev, tau) = (pair[0], pair[1] - pair[0]);
                tracer.time(0, 0, "monitor.score", || {
                    ordered_statistic(posterior, t_prev, tau)
                        + mmle_statistic(spec, posterior, t_prev, tau)
                });
            }
            let t_end = times.observation_end();
            tracer.time(0, 0, "query.quantile", || posterior.quantile_omega(0.995));
            tracer.time(0, 0, "query.reliability_point", || {
                posterior.reliability_point(t_end, t_end / 10.0)
            });
        }
    }
    // The slow queries run on the System 17 posterior every workload
    // loads and never changes: seconds per call on the workloads' own,
    // larger posteriors would not fit the run time limit.
    let sys17 = state
        .registry
        .get("sys17")
        .and_then(|p| cached_fit(&p))
        .ok_or("sys17 has no cached fit")?;
    let posterior = &sys17.fit.posterior;
    let t_end = nhpp_data::sys17::T_END;
    let grid: Vec<f64> = (1..=8).map(|k| t_end * k as f64 / 8.0).collect();
    let window = t_end / 10.0;
    let started = Instant::now();
    for _ in 0..SLOW_QUERY_ROUNDS {
        tracer.time(0, 0, "query.reliability_interval", || {
            posterior.reliability_interval(t_end, window, 0.99)
        });
        let _ = tracer.time(0, 0, "query.predict", || {
            posterior
                .predictive_failures(t_end, window)
                .map(|c| c.interval(0.99))
        });
        tracer.time(0, 0, "query.band", || {
            posterior.mean_value_band(&grid, 0.99)
        });
        if started.elapsed().as_secs_f64() > SLOW_QUERY_BUDGET_S {
            break;
        }
    }
    Ok((counts, frame_bytes))
}

/// Calls `routes::handle` in-process for each reported route that the
/// workload's own ops never reached, on the workload's final state.
fn replay_routes(
    live: &Live,
    next_batch: &BTreeMap<usize, usize>,
    seen: &BTreeMap<String, Vec<f64>>,
    tracer: &Tracer,
) {
    let state = live.service.state();
    let times: Vec<usize> = (0..live.projects.len())
        .filter(|&i| live.projects[i].kind == Kind::Times)
        .collect();
    let mut next = next_batch.clone();
    for route in ROUTES {
        let name = format!("routes.{route}");
        if seen.contains_key(&name) {
            continue;
        }
        for k in 0..ROUTE_REPLAYS {
            let i = times[k % times.len()];
            let p = &live.projects[i];
            let bytes = match route {
                "events" => {
                    let b = next.entry(i).or_insert(0);
                    let Some(batch) = p.future.get(*b) else {
                        continue;
                    };
                    *b += 1;
                    crate::client::request_bytes(
                        "POST",
                        &format!("/projects/{}/events", p.id),
                        &batch.body,
                    )
                }
                "interval" => crate::client::request_bytes(
                    "GET",
                    &format!("/projects/{}/interval?param=omega&level=0.99", p.id),
                    "",
                ),
                _ => {
                    crate::client::request_bytes("GET", &format!("/projects/{}/{route}", p.id), "")
                }
            };
            let request = read_request(&mut &bytes[..]).expect("benchmark requests parse");
            tracer.time(0, 0, &name, || routes::handle(&state, &request));
        }
    }
}

/// A layer's value: the median when the percentile rule allows one,
/// else the mean, with the sample count either way.
fn layer(name: &'static str, unit: &'static str, xs: &[f64]) -> Metric {
    match stats::percentile(xs, 0.5) {
        Some(p50) => Metric::new(name, unit, p50, xs.len()),
        None if xs.is_empty() => Metric {
            note: "no samples",
            ..Metric::new(name, unit, 0.0, 0)
        },
        None => Metric {
            note: "mean",
            ..Metric::new(
                name,
                unit,
                xs.iter().sum::<f64>() / xs.len() as f64,
                xs.len(),
            )
        },
    }
}

/// The self times (ms) of the spans named `name`, times `by`.
fn samples(by_name: &BTreeMap<String, Vec<f64>>, name: &str, by: f64) -> Vec<f64> {
    by_name
        .get(name)
        .map_or_else(Vec::new, |v| v.iter().map(|x| x * by).collect())
}

/// Per request: client-observed time minus the server's parse, handle
/// and render — the transport and queue share.
fn overheads(spans: &[Span]) -> Vec<f64> {
    let mut inside: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if s.name == "http.parse" || s.name == "http.render" || s.name.starts_with("routes.") {
            *inside.entry(s.parent).or_insert(0) += s.duration_ns();
        }
    }
    spans
        .iter()
        .filter(|s| s.name.starts_with("client."))
        .map(|s| {
            s.duration_ns()
                .saturating_sub(inside.get(&s.id).copied().unwrap_or(0)) as f64
                / 1e6
        })
        .collect()
}

const LAYERS: [&str; 6] = ["client", "transport", "queue", "parse", "handle", "render"];

/// The blocking path of the median op: per op, the self time of each
/// layer (the layers partition the op's time), averaged over the ops
/// whose total lies in the middle tenth. Medians of layers do not add
/// up; this decomposition sums to the traced median op time.
fn blocking_sum(spans: &[Span]) -> (f64, Vec<(String, J)>) {
    let layer_of = |name: &str| -> Option<usize> {
        match name {
            "op" => Some(0),
            "server.queue" => Some(2),
            "http.parse" => Some(3),
            "http.render" => Some(5),
            n if n.starts_with("client.") => Some(1),
            n if n.starts_with("routes.") => Some(4),
            _ => None,
        }
    };
    let mut per_op: BTreeMap<u64, [f64; 6]> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(trace::self_times(spans)) {
        if let (true, Some(layer)) = (s.op != 0, layer_of(&s.name)) {
            per_op.entry(s.op).or_default()[layer] += self_ns as f64 / 1e6;
        }
    }
    let mut ops: Vec<[f64; 6]> = per_op.into_values().collect();
    ops.sort_by(|a, b| a.iter().sum::<f64>().total_cmp(&b.iter().sum::<f64>()));
    let band = &ops[ops.len() * 45 / 100
        ..(ops.len() * 55 / 100)
            .max(ops.len() * 45 / 100 + 1)
            .min(ops.len())];
    let mut parts = Vec::new();
    let mut total = 0.0;
    for (i, layer) in LAYERS.iter().enumerate() {
        let mean = band.iter().map(|op| op[i]).sum::<f64>() / band.len().max(1) as f64;
        total += mean;
        parts.push((format!("{layer}_ms"), J::N(mean)));
    }
    parts.push(("median_band_ops".into(), J::I(band.len() as u64)));
    (total, parts)
}

struct Counters([u64; 7]);

impl Counters {
    fn read(m: &Metrics) -> Counters {
        let g = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed);
        Counters([
            g(&m.fits_total),
            g(&m.fits_warm),
            g(&m.fits_coalesced),
            g(&m.cache_hits),
            g(&m.monitor_points),
            g(&m.monitor_alerts),
            g(&m.monitor_refits),
        ])
    }

    fn since(&self, before: &Counters) -> [f64; 7] {
        std::array::from_fn(|i| (self.0[i] - before.0[i]) as f64)
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Runs the traced phase and returns every per-layer metric.
pub fn traced_run(
    args: &Args,
    root: &Path,
    nproc: usize,
    tracer: &Arc<Tracer>,
    untraced_p50: Option<Reported>,
    tally: &mut Tally,
    report: &mut Vec<(String, J)>,
) -> Result<Vec<Metric>, String> {
    let (live, _) = run::boot(args, root, 0, Some(tracer), tally)?;
    tracer.take();
    let state = live.service.state();
    let before = Counters::read(&state.metrics);
    let mut measured: Measured = run::measure(&live, args, nproc);
    // Layer times come from the ops whose latency is reported: the
    // open-loop phase of `ingest-monitored`, the whole run otherwise.
    let rest = tracer.take();
    let (ops_spans, capacity_spans) = match measured.latency_spans.take() {
        Some(open_loop) => (open_loop, rest),
        None => (rest, Vec::new()),
    };
    let [fits, warm, coalesced, hits, points, alerts, refits] =
        Counters::read(&state.metrics).since(&before);
    run::final_checks(&live, &measured, tally, report);
    tally.merge(measured.all.tally.clone());

    let mut inline = trace::self_ms_by_name(&ops_spans);
    eprintln!("servebench: traced ops done, replaying layers");
    let (fit_counts, frame_bytes) = replay_layers(&live, &measured.all.batches, root, tracer)?;
    replay_routes(&live, &measured.all.batches, &inline, tracer);
    let dir = live.dir.clone();
    live.service.stop();
    for _ in 0..REGISTRY_REPLAYS {
        tracer
            .time(0, 0, "registry.replay", || {
                let storage = FsStorage::open(&dir).map(Arc::new)?;
                Registry::open_with(storage, DurabilityPolicy::default())
                    .map(drop)
                    .map_err(|e| std::io::Error::other(e.to_string()))
            })
            .map_err(|e| format!("replay {}: {e}", dir.display()))?;
    }
    let replay_spans = tracer.take();
    let replayed = trace::self_ms_by_name(&replay_spans);
    for (name, xs) in &replayed {
        if name.starts_with("routes.") {
            inline.entry(name.clone()).or_default().extend(xs);
        }
    }

    let all_spans: Vec<Span> = [&ops_spans[..], &capacity_spans, &replay_spans].concat();
    let trace_path = root.parent().unwrap_or(root).join(format!(
        "trace-{}-seed{}.tsv",
        args.workload.name(),
        args.seed
    ));
    trace::write_tsv(&trace_path, &all_spans)
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;

    let traced_p50 = stats::percentile(&measured.latency.latency_ms, 0.5);
    let (sum, parts) = blocking_sum(&ops_spans);
    let mut lag = measured.latency.lag_ms.clone();
    let lag_p50 = stats::percentile(&lag, 0.5).unwrap_or(0.0);
    let blocking = sum + lag_p50;
    let overhead = match (traced_p50, untraced_p50) {
        (Some(t), Some(u)) => t - u.value,
        _ => f64::NAN,
    };
    report.push(("blocking_path".into(), J::O(parts)));
    report.push(("trace_file".into(), J::S(trace_path.display().to_string())));
    if let Some(Reported { value: u, .. }) = untraced_p50 {
        report.push((
            "layers_add_up".into(),
            J::B((blocking - u).abs() <= overhead.abs() + 0.05 * u),
        ));
    }

    let ops = measured.all.tally.attempted as f64;
    let versions = measured.all.versions.len() as f64;
    if lag.is_empty() {
        lag.push(0.0);
    }
    let lag_p90 = stats::percentile(&lag, 0.9);
    let mut metrics = vec![
        layer("http.parse_us", "us", &samples(&inline, "http.parse", 1e3)),
        layer(
            "http.render_us",
            "us",
            &samples(&inline, "http.render", 1e3),
        ),
        layer("server.overhead_ms", "ms", &overheads(&ops_spans)),
        layer(
            "server.queue_ms",
            "ms",
            &samples(&inline, "server.queue", 1.0),
        ),
    ];
    for (route, name) in ROUTES.iter().zip([
        "routes.events_ms",
        "routes.fit_ms",
        "routes.interval_ms",
        "routes.spc_ms",
    ]) {
        metrics.push(layer(
            name,
            "ms",
            &samples(&inline, &format!("routes.{route}"), 1.0),
        ));
    }
    metrics.extend([
        layer(
            "registry.ingest_ms",
            "ms",
            &samples(&replayed, "registry.ingest", 1.0),
        ),
        layer(
            "registry.replay_ms",
            "ms",
            &samples(&replayed, "registry.replay", 1.0),
        ),
        layer(
            "storage.append_ms",
            "ms",
            &samples(&replayed, "storage.append", 1.0),
        ),
        layer("storage.bytes_per_op", "bytes", &frame_bytes),
        layer(
            "monitor.score_ms",
            "ms",
            &samples(&replayed, "monitor.score", 1.0),
        ),
        Metric::new("monitor.points", "count", points, 1),
        Metric::new("monitor.alerts", "count", alerts, 1),
        Metric::new("monitor.refits", "count", refits, 1),
        Metric::new(
            "scheduler.fits_per_100_ops",
            "fits/100ops",
            ratio(fits * 100.0, ops),
            ops as usize,
        ),
        Metric::new(
            "scheduler.cache_hit_ratio",
            "share",
            ratio(hits, hits + coalesced + fits),
            (hits + coalesced + fits) as usize,
        ),
        Metric::new("scheduler.coalesced", "count", coalesced, 1),
        Metric::new(
            "scheduler.warm_ratio",
            "share",
            ratio(warm, fits),
            fits as usize,
        ),
        Metric::new(
            "scheduler.queries_per_version",
            "queries/version",
            ratio(measured.all.fit_reads as f64, versions),
            versions as usize,
        ),
        layer(
            "scheduler.ensure_fit_ms",
            "ms",
            &samples(&replayed, "scheduler.ensure_fit", 1.0),
        ),
        layer("fit.cold_ms", "ms", &samples(&replayed, "fit.cold", 1.0)),
        layer("fit.warm_ms", "ms", &samples(&replayed, "fit.warm", 1.0)),
        Metric::new(
            "fit.inner_iterations",
            "count",
            fit_counts.iterations.iter().sum(),
            fit_counts.iterations.len(),
        ),
        layer("fit.components", "count", &fit_counts.components),
        Metric::new(
            "fit.attempts",
            "count",
            fit_counts.attempts.iter().sum(),
            fit_counts.attempts.len(),
        ),
        Metric::new(
            "fit.fallbacks",
            "count",
            fit_counts.fallbacks as f64,
            fit_counts.fits as usize,
        ),
        layer(
            "query.quantile_ms",
            "ms",
            &samples(&replayed, "query.quantile", 1.0),
        ),
        layer(
            "query.reliability_point_ms",
            "ms",
            &samples(&replayed, "query.reliability_point", 1.0),
        ),
        layer(
            "query.reliability_interval_ms",
            "ms",
            &samples(&replayed, "query.reliability_interval", 1.0),
        ),
        layer(
            "query.predict_ms",
            "ms",
            &samples(&replayed, "query.predict", 1.0),
        ),
        layer(
            "query.band_ms",
            "ms",
            &samples(&replayed, "query.band", 1.0),
        ),
        match lag_p90 {
            Some(v) => Metric::new("gen.lag_p90_ms", "ms", v, lag.len()),
            None => Metric {
                note: "max: too few samples for p90",
                ..Metric::new(
                    "gen.lag_p90_ms",
                    "ms",
                    lag.iter().copied().fold(0.0, f64::max),
                    lag.len(),
                )
            },
        },
        Metric::new(
            "trace.overhead",
            "ms",
            overhead,
            measured.latency.latency_ms.len(),
        ),
        Metric::new(
            "trace.blocking_sum_ms",
            "ms",
            blocking,
            measured.latency.latency_ms.len(),
        ),
        Metric::new(
            "trace.untraced_p50_ms",
            "ms",
            untraced_p50.map_or(f64::NAN, |u| u.value),
            untraced_p50.map_or(0, |u| u.samples),
        ),
    ]);
    Ok(metrics)
}
