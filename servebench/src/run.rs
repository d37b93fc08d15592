//! Set-up, the timed phases of each workload, the correctness checks,
//! and the result line.

use crate::client::{self, ensure, num, Object};
use crate::gen::{self, ClientStream, Op, Project, Scheduled, PANELS};
use crate::layers;
use crate::service::{route_name, Service};
use crate::stats::{self, Failure, Reported, Tally};
use crate::trace::Tracer;
use crate::{Args, Workload};
use nhpp_data::json::{json_string, Value};
use nhpp_models::Posterior as _;
use nhpp_serve::monitor::MonitorConfig;
use nhpp_serve::ServerConfig;
use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is their median. Monitored
/// set-up scores every historical gap (seconds), the others take
/// milliseconds and need more repetitions to be steady.
fn setup_reps(workload: Workload) -> usize {
    match workload {
        Workload::IngestMonitored => 3,
        _ => 21,
    }
}

/// Offered open-loop append rate of `ingest-monitored`, about half the
/// capacity phase's `ops_per_s` on the reference host (2 cores,
/// 77–90/s). At 55/s a stall now and then queued later sends behind it
/// and the p90 ranged 29–175 ms between runs.
pub const INGEST_RATE: f64 = 42.0;
/// Share of an `ingest-monitored` run spent in the open-loop phase; the
/// rest is the closed-loop capacity phase.
const OPEN_SHARE: f64 = 0.75;

/// Closed-loop operations per second of `--seconds`: each run times a
/// fixed list of this many ops, sized to take about `--seconds` on the
/// reference host, so two runs of one seed time the same operations.
fn closed_loop_rate(workload: Workload) -> f64 {
    match workload {
        Workload::IngestMonitored => 110.0,
        Workload::RefitChurn => 220.0,
        Workload::QueryPosterior => 150.0,
    }
}

/// Closed-loop clients. An on-demand refit already runs on `nproc`
/// threads (`FitSettings::threads` is 0), so `refit-churn` drives one
/// client: on the 2-core reference host one client keeps both cores
/// about 60% busy, while a second client bought 1.25x the throughput
/// at twice the run-to-run spread, measuring the OS scheduler instead
/// of the refit.
fn closed_loop_clients(workload: Workload, nproc: usize) -> usize {
    match workload {
        Workload::RefitChurn => 1,
        _ => nproc,
    }
}

/// Share of a closed loop's ops run untimed before the timed ones, so
/// the timed ops start on a warm process (caches, heap, page tables).
const WARMUP_SHARE: f64 = 0.1;

/// `ops_per_s` is the median rate over this many equal-count windows.
const RATE_WINDOWS: usize = 5;

/// A closed loop stops at this multiple of its planned duration even if
/// ops remain, so a slow build cannot overrun the run time limit.
const OVERRUN: f64 = 3.0;

/// Relative tolerance between the served System 17 ω interval and an
/// in-process fit of the same data (both are bitwise deterministic).
const SYS17_REL_TOL: f64 = 1e-9;

/// Everything one booted service needs.
pub struct Live {
    pub service: Service,
    pub addr: SocketAddr,
    pub projects: Vec<Project>,
    pub dir: PathBuf,
    pub tracer: Option<Arc<Tracer>>,
    pub workload: Workload,
}

/// What one client thread saw.
#[derive(Default)]
pub struct ClientLog {
    pub tally: Tally,
    pub latency_ms: Vec<f64>,
    pub lag_ms: Vec<f64>,
    pub by_route: BTreeMap<&'static str, Vec<f64>>,
    pub acked_events: BTreeMap<usize, u64>,
    /// Acked appends (batches) per project.
    pub batches: BTreeMap<usize, usize>,
    /// `(project, data_version)` of every posterior-reading response.
    pub versions: BTreeSet<(usize, u64)>,
    pub fit_reads: u64,
    /// Completion time of each completed op, in seconds from the start
    /// of its phase.
    pub ends: Vec<f64>,
}

impl ClientLog {
    fn clone_counts(&self) -> ClientLog {
        ClientLog {
            tally: self.tally.clone(),
            acked_events: self.acked_events.clone(),
            batches: self.batches.clone(),
            versions: self.versions.clone(),
            fit_reads: self.fit_reads,
            ..ClientLog::default()
        }
    }

    fn merge(&mut self, other: ClientLog) {
        self.tally.merge(other.tally);
        self.latency_ms.extend(other.latency_ms);
        self.lag_ms.extend(other.lag_ms);
        for (route, xs) in other.by_route {
            self.by_route.entry(route).or_default().extend(xs);
        }
        for (p, n) in other.acked_events {
            *self.acked_events.entry(p).or_insert(0) += n;
        }
        for (p, n) in other.batches {
            *self.batches.entry(p).or_insert(0) += n;
        }
        self.versions.extend(other.versions);
        self.fit_reads += other.fit_reads;
        self.ends.extend(other.ends);
    }
}

type Outcome = Result<Object, (Failure, String)>;

impl Live {
    /// One request; in a traced run a `client.<route>` span (the
    /// client's view: connect, transfer, server) parented to `op`.
    fn call(
        &self,
        op: u64,
        method: &str,
        target: &str,
        body: &str,
        log: &mut ClientLog,
    ) -> Outcome {
        let route = route_name(target.split('?').next().unwrap_or(target));
        let t0 = Instant::now();
        let outcome = match (&self.tracer, self.service.ports()) {
            (Some(tracer), Some(ports)) if op != 0 => {
                let id = tracer.new_id();
                let start = tracer.ns_at(t0);
                let out = client::call(self.addr, method, target, body, |port| {
                    ports
                        .lock()
                        .expect("port map poisoned")
                        .insert(port, (op, id));
                });
                tracer.record(
                    id,
                    op,
                    op,
                    &format!("client.{route}"),
                    start,
                    tracer.now_ns(),
                );
                out
            }
            _ => client::call(self.addr, method, target, body, |_| {}),
        };
        if outcome.is_ok() {
            log.by_route
                .entry(route)
                .or_default()
                .push(t0.elapsed().as_secs_f64() * 1e3);
        }
        outcome
    }

    /// Runs one operation, validating every response.
    fn exec(&self, op: Op, log: &mut ClientLog) -> Result<(), (Failure, String)> {
        let op_id = self.tracer.as_ref().map_or(0, |t| t.new_id());
        let start = self.tracer.as_ref().map_or(0, |t| t.now_ns());
        let result = self.exec_inner(op_id, op, log);
        if let Some(tracer) = &self.tracer {
            tracer.record(op_id, 0, op_id, "op", start, tracer.now_ns());
        }
        result
    }

    fn exec_inner(&self, op_id: u64, op: Op, log: &mut ClientLog) -> Result<(), (Failure, String)> {
        match op {
            Op::Append { project, batch } | Op::AppendFit { project, batch } => {
                let p = &self.projects[project];
                let b = p.future.get(batch).ok_or_else(|| {
                    (
                        Failure::Validation,
                        format!("{} ran out of generated batches", p.id),
                    )
                })?;
                let target = format!("/projects/{}/events", p.id);
                let reply = self.call(op_id, "POST", &target, &b.body, log)?;
                // History is version 1, so batch `i` produces version `i + 2`.
                let expected = batch as u64 + 2;
                ensure(num(&reply, "ingested")? == b.events as f64, || {
                    format!("{}: ingested {reply:?}, sent {}", p.id, b.events)
                })?;
                ensure(num(&reply, "version")? == expected as f64, || {
                    format!("{}: version {reply:?}, expected {expected}", p.id)
                })?;
                if self.workload == Workload::IngestMonitored {
                    num(&reply, "alerts")?;
                }
                *log.acked_events.entry(project).or_insert(0) += b.events;
                *log.batches.entry(project).or_insert(0) += 1;
                if let Op::AppendFit { .. } = op {
                    let reply =
                        self.call(op_id, "GET", &format!("/projects/{}/fit", p.id), "", log)?;
                    let version = num(&reply, "data_version")?;
                    ensure(version == expected as f64, || {
                        format!("{}: fit of version {version}, expected {expected}", p.id)
                    })?;
                    ensure(
                        num(&reply, "mean_omega")? > 0.0 && num(&reply, "sd_omega")? >= 0.0,
                        || format!("{}: bad fit {reply:?}", p.id),
                    )?;
                    ensure(num(&reply, "attempts")? >= 1.0, || {
                        format!("{}: no attempts {reply:?}", p.id)
                    })?;
                    log.fit_reads += 1;
                    log.versions.insert((project, expected));
                }
                Ok(())
            }
            Op::Query { project, panel } => {
                let p = &self.projects[project];
                let reply = self.call(
                    op_id,
                    "GET",
                    &format!("/projects/{}/{}", p.id, PANELS[panel]),
                    "",
                    log,
                )?;
                check_panel(&reply, panel)
                    .map_err(|m| (Failure::Validation, format!("{}: {m}", p.id)))?;
                // No appends: every answer comes from the loaded version,
                // so data versions are trivially monotone.
                let version = num(&reply, "data_version")?;
                ensure(version == 1.0, || {
                    format!("{}: data_version {version} after a read-only run", p.id)
                })?;
                log.fit_reads += 1;
                log.versions.insert((project, 1));
                Ok(())
            }
        }
    }
}

/// Content checks of a dashboard panel.
fn check_panel(reply: &Object, panel: usize) -> Result<(), String> {
    let get = |k: &str| {
        reply
            .get(k)
            .and_then(Value::as_f64)
            .filter(|x| x.is_finite())
    };
    if PANELS[panel].starts_with("interval") {
        let (lo, hi) = (get("lo").ok_or("no lo")?, get("hi").ok_or("no hi")?);
        if !(0.0 <= lo && lo <= hi) {
            return Err(format!(
                "interval [{lo}, {hi}] is not ordered and non-negative"
            ));
        }
    } else {
        let p = get("p").ok_or("no p")?;
        let status = reply.get("status").and_then(Value::as_str).unwrap_or("");
        if !(0.0..=1.0).contains(&p)
            || !["in-control", "deterioration-alarm", "improvement"].contains(&status)
        {
            return Err(format!("spc p={p} status={status:?}"));
        }
    }
    Ok(())
}

fn must(outcome: Outcome, tally: &mut Tally) -> Option<Object> {
    match outcome {
        Ok(obj) => {
            tally.ok();
            Some(obj)
        }
        Err((why, message)) => {
            tally.fail(why, message);
            None
        }
    }
}

fn sys17_batch() -> String {
    let mut text = format!("# t_end={}\n", nhpp_data::sys17::T_END);
    for t in nhpp_data::sys17::FAILURE_TIMES {
        text.push_str(&format!("{t}\n"));
    }
    text
}

/// Boots a fresh service and brings it to the measured starting state:
/// projects created, histories loaded, first fits done (and charts
/// caught up when monitored). Returns the service and the set-up time.
pub fn boot(
    args: &Args,
    root: &std::path::Path,
    rep: usize,
    tracer: Option<&Arc<Tracer>>,
    tally: &mut Tally,
) -> Result<(Live, f64), String> {
    let dir = root.join(format!(
        "data-{rep}-{}",
        if tracer.is_some() { "traced" } else { "plain" }
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let projects = gen::projects(args.workload, args.seed);
    let t0 = Instant::now();
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        data_dir: Some(dir.clone()),
        quiet: true,
        monitor: (args.workload == Workload::IngestMonitored).then(MonitorConfig::default),
        ..ServerConfig::default()
    };
    let service = Service::start(config, tracer).map_err(|e| format!("boot: {e}"))?;
    let live = Live {
        addr: service.addr(),
        service,
        projects,
        dir,
        tracer: tracer.cloned(),
        workload: args.workload,
    };
    let mut log = ClientLog::default();
    let mut ids: Vec<&str> = Vec::new();
    for p in &live.projects {
        must(live.call(0, "PUT", &p.create_target(), "", &mut log), tally);
        if let Some(reply) = must(
            live.call(
                0,
                "POST",
                &format!("/projects/{}/events", p.id),
                &p.history,
                &mut log,
            ),
            tally,
        ) {
            tally.check(
                reply.get("ingested").and_then(Value::as_f64) == Some(p.history_events as f64),
                || format!("{}: history ingest {reply:?}", p.id),
            );
        }
        ids.push(&p.id);
    }
    must(
        live.call(
            0,
            "PUT",
            "/projects/sys17?kind=times&model=go&prior=paper-info-times",
            "",
            &mut log,
        ),
        tally,
    );
    must(
        live.call(
            0,
            "POST",
            "/projects/sys17/events",
            &sys17_batch(),
            &mut log,
        ),
        tally,
    );
    ids.push("sys17");
    // First fits (and chart catch-up) from `nproc` clients, as a
    // dashboard opening every project at once would.
    let first_fit = if args.workload == Workload::IngestMonitored {
        "monitor"
    } else {
        "fit"
    };
    let clients = std::thread::available_parallelism().map_or(1, |n| n.get());
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (live, ids) = (&live, &ids);
                scope.spawn(move || {
                    let (mut t, mut log) = (Tally::default(), ClientLog::default());
                    for id in ids.iter().skip(c).step_by(clients) {
                        must(
                            live.call(
                                0,
                                "GET",
                                &format!("/projects/{id}/{first_fit}"),
                                "",
                                &mut log,
                            ),
                            &mut t,
                        );
                    }
                    t
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("set-up client panicked"))
            .collect()
    });
    for t in tallies {
        tally.merge(t);
    }
    Ok((live, t0.elapsed().as_secs_f64()))
}

/// Closed loop: `clients` clients run a warm-up of
/// [`WARMUP_SHARE`] untimed ops, then `ops` timed ops of their op
/// streams, stopping early only at [`OVERRUN`] times the planned `secs`.
/// Warm-up ops are checked and counted like the others but leave no
/// latency, completion time or span behind.
fn closed_loop(
    live: &Live,
    args: &Args,
    clients: usize,
    secs: f64,
    start: &[usize],
) -> (ClientLog, f64) {
    let ops = (secs * closed_loop_rate(args.workload)).round() as usize;
    let warmup = (ops as f64 * WARMUP_SHARE).round() as usize;
    let barrier = Barrier::new(clients);
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut stream = ClientStream::new(
                        args.workload,
                        args.seed,
                        c,
                        clients,
                        &live.projects,
                        start.to_vec(),
                    );
                    let lens: Vec<usize> = live.projects.iter().map(|p| p.future.len()).collect();
                    let mut log = ClientLog::default();
                    let share = |n: usize| n / clients + usize::from(c < n % clients);
                    for _ in 0..share(warmup) {
                        let Some(op) = stream.next_op(&lens) else {
                            break;
                        };
                        let outcome = live.exec(op, &mut log);
                        log.tally.record(outcome);
                    }
                    log.latency_ms.clear();
                    log.by_route.clear();
                    if barrier.wait().is_leader() {
                        if let Some(tracer) = &live.tracer {
                            tracer.take();
                        }
                    }
                    barrier.wait();
                    let t0 = Instant::now();
                    let deadline = t0 + Duration::from_secs_f64(secs * OVERRUN);
                    for _ in 0..share(ops) {
                        if Instant::now() >= deadline {
                            eprintln!(
                                "servebench: client {c} stopped at {OVERRUN}x the planned {secs} s"
                            );
                            break;
                        }
                        let Some(op) = stream.next_op(&lens) else {
                            break;
                        };
                        let began = Instant::now();
                        let outcome = live.exec(op, &mut log);
                        if outcome.is_ok() {
                            log.latency_ms.push(began.elapsed().as_secs_f64() * 1e3);
                            log.ends.push(t0.elapsed().as_secs_f64());
                        }
                        log.tally.record(outcome);
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = ClientLog::default();
    for log in logs {
        all.merge(log);
    }
    let elapsed = all.ends.iter().copied().fold(0.0, f64::max);
    (all, elapsed)
}

/// Open loop: each sender sends its scheduled ops at their due times,
/// timing each from when it was due.
fn open_loop(live: &Live, schedule: &[Vec<Scheduled>]) -> ClientLog {
    let t0 = Instant::now() + Duration::from_millis(20);
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = schedule
            .iter()
            .map(|sends| {
                scope.spawn(move || {
                    let mut log = ClientLog::default();
                    for s in sends {
                        let due = t0 + Duration::from_secs_f64(s.due_ms / 1e3);
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        log.lag_ms.push(
                            Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3,
                        );
                        let outcome = live.exec(s.op, &mut log);
                        if outcome.is_ok() {
                            log.latency_ms.push(due.elapsed().as_secs_f64() * 1e3);
                            log.ends.push(t0.elapsed().as_secs_f64());
                        }
                        log.tally.record(outcome);
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sender thread panicked"))
            .collect()
    });
    let mut all = ClientLog::default();
    for log in logs {
        all.merge(log);
    }
    all
}

/// What one measured phase produced.
pub struct Measured {
    /// Ops timed for latency (open loop for `ingest-monitored`).
    pub latency: ClientLog,
    /// Closed-loop throughput (median over windows), the ops behind it
    /// and the phase's duration.
    pub ops_per_s: f64,
    pub throughput_ops: u64,
    pub capacity_secs: f64,
    /// Failures, acked events and appends over every phase.
    pub all: ClientLog,
    /// In a traced open-loop run, the spans of the latency phase alone.
    pub latency_spans: Option<Vec<crate::trace::Span>>,
}

pub fn measure(live: &Live, args: &Args, nproc: usize) -> Measured {
    let n = live.projects.len();
    let clients = closed_loop_clients(args.workload, nproc);
    match args.workload {
        Workload::IngestMonitored => {
            let open_secs = args.seconds * OPEN_SHARE;
            let lens: Vec<usize> = live.projects.iter().map(|p| p.future.len()).collect();
            let (schedule, start) =
                gen::open_schedule(args.seed, &lens, nproc, INGEST_RATE, open_secs);
            let open = open_loop(live, &schedule);
            let latency_spans = live.tracer.as_ref().map(|t| t.take());
            let capacity_secs = args.seconds - open_secs;
            let (capacity, elapsed) = closed_loop(live, args, clients, capacity_secs, &start);
            let mut both = open.clone_counts();
            both.merge(capacity.clone_counts());
            Measured {
                ops_per_s: stats::windowed_rate(&capacity.ends, RATE_WINDOWS),
                throughput_ops: capacity.ends.len() as u64,
                capacity_secs: elapsed,
                latency: open,
                latency_spans,
                all: both,
            }
        }
        _ => {
            let (log, elapsed) = closed_loop(live, args, clients, args.seconds, &vec![0; n]);
            Measured {
                ops_per_s: stats::windowed_rate(&log.ends, RATE_WINDOWS),
                throughput_ops: log.ends.len() as u64,
                capacity_secs: elapsed,
                all: log.clone_counts(),
                latency: log,
                latency_spans: None,
            }
        }
    }
}

/// Post-run checks: acknowledged events are all there, the System 17
/// interval matches an in-process fit, and monitor counts agree.
pub fn final_checks(
    live: &Live,
    measured: &Measured,
    tally: &mut Tally,
    report: &mut Vec<(String, J)>,
) {
    let mut log = ClientLog::default();
    for (i, p) in live.projects.iter().enumerate() {
        let expected = p.history_events + measured.all.acked_events.get(&i).copied().unwrap_or(0);
        if let Some(reply) = must(
            live.call(0, "GET", &format!("/projects/{}", p.id), "", &mut log),
            tally,
        ) {
            let got = reply.get("event_count").and_then(Value::as_f64);
            tally.check(got == Some(expected as f64), || {
                format!("{}: event_count {got:?}, sent {expected}", p.id)
            });
        }
    }
    if let Some(reply) = must(
        live.call(
            0,
            "GET",
            "/projects/sys17/interval?param=omega&level=0.99",
            "",
            &mut log,
        ),
        tally,
    ) {
        let data = nhpp_data::ObservedData::from(nhpp_data::sys17::failure_times());
        let local = nhpp_vb::fit_supervised(
            nhpp_models::ModelSpec::goel_okumoto(),
            nhpp_models::prior::NhppPrior::paper_info_times(),
            &data,
            nhpp_vb::RobustOptions::default(),
        )
        .map(|fit| fit.posterior.credible_interval_omega(0.99));
        let served = (
            reply.get("lo").and_then(Value::as_f64).unwrap_or(f64::NAN),
            reply.get("hi").and_then(Value::as_f64).unwrap_or(f64::NAN),
        );
        let close = |a: f64, b: f64| (a - b).abs() <= SYS17_REL_TOL * b.abs();
        let ok = matches!(local, Ok((lo, hi)) if close(served.0, lo) && close(served.1, hi));
        tally.check(ok, || {
            format!("sys17 omega interval served {served:?}, in-process {local:?}")
        });
        report.push((
            "sys17_omega_interval".into(),
            J::O(vec![
                ("served".into(), J::A(vec![J::N(served.0), J::N(served.1)])),
                (
                    "in_process".into(),
                    local.map_or(J::S("fit failed".into()), |(lo, hi)| {
                        J::A(vec![J::N(lo), J::N(hi)])
                    }),
                ),
                ("rel_tol".into(), J::N(SYS17_REL_TOL)),
            ]),
        ));
    }
    if live.workload == Workload::IngestMonitored {
        if let Some(reply) = must(live.call(0, "GET", "/monitor/status", "", &mut log), tally) {
            let state = live.service.state();
            let counted = state
                .metrics
                .monitor_alerts
                .load(std::sync::atomic::Ordering::Relaxed);
            let total = reply.get("total_alerts").and_then(Value::as_f64);
            tally.check(total == Some(counted as f64), || {
                format!("/monitor/status total_alerts {total:?}, metrics {counted}")
            });
            report.push(("monitor_total_alerts".into(), J::I(counted)));
        }
    }
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// A minimal JSON value for the report and result lines.
pub enum J {
    N(f64),
    I(u64),
    S(String),
    B(bool),
    A(Vec<J>),
    O(Vec<(String, J)>),
}

impl J {
    pub fn render(&self, out: &mut String) {
        match self {
            J::N(x) if x.is_finite() => out.push_str(&format!("{x}")),
            J::N(_) => out.push_str("null"),
            J::I(n) => out.push_str(&n.to_string()),
            J::S(s) => out.push_str(&json_string(s)),
            J::B(b) => out.push_str(if *b { "true" } else { "false" }),
            J::A(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.render(out);
                }
                out.push(']');
            }
            J::O(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&json_string(k));
                    out.push_str(": ");
                    v.render(out);
                }
                out.push('}');
            }
        }
    }

    pub fn line(&self) -> String {
        let mut out = String::new();
        self.render(&mut out);
        out
    }
}

/// A metric of the result line, with the samples behind it for the report.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
    pub note: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Metric {
        Metric {
            name,
            unit,
            value,
            samples,
            note: "",
        }
    }
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// One untraced boot + measurement; `reps` set-ups (all but the last
/// torn down again) give the median set-up time.
fn untraced_phase(
    args: &Args,
    root: &std::path::Path,
    nproc: usize,
    reps: usize,
    tally: &mut Tally,
    report: &mut Vec<(String, J)>,
) -> Result<(Measured, Vec<f64>), String> {
    let mut setups = Vec::new();
    let mut live = None;
    for rep in 0..reps {
        let (l, secs) = boot(args, root, rep, None, tally)?;
        eprintln!(
            "servebench: {} set-up {rep}: {secs:.3} s",
            args.workload.name()
        );
        setups.push(secs);
        if rep + 1 < reps {
            l.service.stop();
            let _ = std::fs::remove_dir_all(&l.dir);
        } else {
            live = Some(l);
        }
    }
    let live = live.expect("at least one set-up");
    let measured = measure(&live, args, nproc);
    final_checks(&live, &measured, tally, report);
    live.service.stop();
    let _ = std::fs::remove_dir_all(&live.dir);
    Ok((measured, setups))
}

fn route_medians(log: &ClientLog) -> J {
    J::O(
        log.by_route
            .iter()
            .map(|(route, xs)| {
                let (p50, _) = stats::summarize(xs);
                (
                    format!("{route}_p50_ms"),
                    J::O(vec![
                        (
                            "value".into(),
                            p50.map_or(J::S("too few samples".into()), |r| J::N(r.value)),
                        ),
                        ("samples".into(), J::I(xs.len() as u64)),
                    ]),
                )
            })
            .collect(),
    )
}

pub fn main(args: &Args) -> Result<bool, String> {
    let root = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(".bench_tmp")
        .join(format!("{}-{}", args.workload.name(), std::process::id()));
    std::fs::create_dir_all(&root).map_err(|e| format!("create {}: {e}", root.display()))?;
    let result = run(args, &root);
    let _ = std::fs::remove_dir_all(&root);
    result
}

fn run(args: &Args, root: &std::path::Path) -> Result<bool, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut tally = Tally::default();
    let mut report: Vec<(String, J)> = vec![
        ("workload".into(), J::S(args.workload.name().into())),
        ("why".into(), J::S(args.workload.why().into())),
        ("seed".into(), J::I(args.seed)),
        ("seconds".into(), J::N(args.seconds)),
        ("trace".into(), J::B(args.trace)),
        ("nproc".into(), J::I(nproc as u64)),
        (
            "client_threads".into(),
            J::I(closed_loop_clients(args.workload, nproc) as u64),
        ),
        ("warmup_share".into(), J::N(WARMUP_SHARE)),
        ("server_workers".into(), J::I(nproc as u64)),
        (
            "projects".into(),
            J::A(
                gen::projects(args.workload, args.seed)
                    .iter()
                    .map(|p| {
                        J::S(format!(
                            "{} {} {} events",
                            p.create_target(),
                            p.kind.label(),
                            p.history_events
                        ))
                    })
                    .collect(),
            ),
        ),
    ];
    if args.workload == Workload::IngestMonitored {
        report.push(("offered_rate_per_s".into(), J::N(INGEST_RATE)));
        report.push(("open_loop_secs".into(), J::N(args.seconds * OPEN_SHARE)));
    }

    let reps = if args.trace {
        1
    } else {
        setup_reps(args.workload)
    };
    let (measured, setups) = untraced_phase(args, root, nproc, reps, &mut tally, &mut report)?;
    let (p50, p90) = stats::summarize(&measured.latency.latency_ms);
    report.push((
        "setup_s_each".into(),
        J::A(setups.iter().map(|&s| J::N(s)).collect()),
    ));
    report.push(("route_latency".into(), route_medians(&measured.latency)));
    report.push((
        "latency_samples".into(),
        J::I(measured.latency.latency_ms.len() as u64),
    ));
    report.push((
        "latency_percentiles_ms".into(),
        J::O(
            [0.5, 0.9, 0.95, 0.99]
                .iter()
                .map(|&q| {
                    (
                        format!("p{}", (q * 100.0) as u32),
                        stats::percentile(&measured.latency.latency_ms, q)
                            .map_or(J::S("too few samples".into()), J::N),
                    )
                })
                .collect(),
        ),
    ));
    report.push(("throughput_ops".into(), J::I(measured.throughput_ops)));
    report.push(("throughput_secs".into(), J::N(measured.capacity_secs)));
    if !measured.latency.lag_ms.is_empty() {
        report.push((
            "gen_lag_p50_ms".into(),
            J::N(median(&measured.latency.lag_ms)),
        ));
    }

    let mut metrics: Vec<Metric> = Vec::new();
    let mut complete = true;
    if args.trace {
        let tracer = Arc::new(Tracer::new());
        let layer_metrics =
            layers::traced_run(args, root, nproc, &tracer, p50, &mut tally, &mut report)?;
        metrics.extend(layer_metrics);
    } else {
        let mut need = |name: &'static str, r: Option<Reported>| match r {
            Some(r) => metrics.push(Metric::new(name, "ms", r.value, r.samples)),
            None => complete = false,
        };
        need("latency_p50_ms", p50);
        need("latency_p90_ms", p90);
        metrics.push(Metric::new("setup_s", "s", median(&setups), setups.len()));
        metrics.push(Metric::new(
            "ops_per_s",
            "ops/s",
            measured.ops_per_s,
            measured.throughput_ops as usize,
        ));
        metrics.push(Metric::new(
            "peak_rss_mb",
            "MB",
            peak_rss_mb().unwrap_or(f64::NAN),
            1,
        ));
        if !complete {
            tally.fail(
                Failure::Validation,
                format!(
                    "too few latency samples ({}) for p50/p90",
                    measured.latency.latency_ms.len()
                ),
            );
        }
    }
    tally.merge(measured.all.tally.clone());

    report.push(("fail_ratio".into(), J::N(tally.fail_ratio())));
    report.push((
        "failures".into(),
        J::O(
            tally
                .failed
                .iter()
                .map(|(k, v)| (k.label().to_string(), J::I(*v)))
                .collect(),
        ),
    ));
    report.push((
        "failure_messages".into(),
        J::A(tally.messages.iter().map(|m| J::S(m.clone())).collect()),
    ));
    report.push((
        "metrics".into(),
        J::O(
            metrics
                .iter()
                .map(|m| {
                    let mut fields = vec![
                        ("value".into(), J::N(m.value)),
                        ("unit".into(), J::S(m.unit.into())),
                        ("samples".into(), J::I(m.samples as u64)),
                    ];
                    if !m.note.is_empty() {
                        fields.push(("stat".into(), J::S(m.note.into())));
                    }
                    (m.name.to_string(), J::O(fields))
                })
                .collect(),
        ),
    ));
    println!("{}", J::O(vec![("report".into(), J::O(report))]).line());

    let correct = tally.failed_total() == 0 && metrics.iter().all(|m| m.value.is_finite());
    let result = J::O(vec![
        ("correct".into(), J::B(correct)),
        ("attempted".into(), J::I(tally.attempted.max(1))),
        ("failed".into(), J::I(tally.failed_total())),
        (
            "metrics".into(),
            J::O(
                metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name.to_string(),
                            J::O(vec![
                                ("value".into(), J::N(m.value)),
                                ("unit".into(), J::S(m.unit.into())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", result.line());
    Ok(correct)
}
