//! Seeded inputs: Goel–Okumoto failure traces, the project mix of each
//! workload, and the per-client operation streams. Everything here is
//! a pure function of the seed, so two runs with one seed time the same
//! operations in the same order.

use crate::Workload;
use std::fmt::Write as _;

/// SplitMix64: small, fast and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of a seed, so adding a stream
    /// never shifts the draws of another.
    pub fn stream(seed: u64, tag: &str) -> Rng {
        let mut h = 0xcbf2_9ce4_8422_2325_u64;
        for b in tag.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Rng(seed ^ h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform on the open interval `(0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.uniform()
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Event times of a GO trace with mean value `ω(1 − e^{−βt})`: event `k`
/// falls where the mean value function crosses `k − 1 + U_k`, `U_k`
/// uniform. Stratifying the arrivals keeps every seed's trace close to
/// the mean value function, so seeds change the traces but hardly the
/// work they cause, and in-control charts stay in control. Stops after
/// `count` events, at `t_max`, or when the process has no faults left.
fn go_times(rng: &mut Rng, omega: f64, beta: f64, count: usize, t_max: f64) -> Vec<f64> {
    let mut out = Vec::new();
    while out.len() < count {
        let lambda = out.len() as f64 + rng.uniform();
        if lambda >= omega {
            break;
        }
        let t = -(-lambda / omega).ln_1p() / beta;
        if t > t_max {
            break;
        }
        out.push(t);
    }
    out
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Times,
    Grouped,
}

impl Kind {
    pub fn label(self) -> &'static str {
        match self {
            Kind::Times => "times",
            Kind::Grouped => "grouped",
        }
    }
}

/// One appended batch: a single failure (times) or a single bin (grouped).
#[derive(Debug, Clone)]
pub struct Batch {
    pub body: String,
    pub events: u64,
}

/// One project of a workload: its configuration, the history loaded at
/// set-up, and the batches the timed operations append in order.
#[derive(Debug, Clone)]
pub struct Project {
    pub id: String,
    pub kind: Kind,
    pub prior: String,
    pub history: String,
    pub history_events: u64,
    pub future: Vec<Batch>,
}

impl Project {
    pub fn create_target(&self) -> String {
        format!(
            "/projects/{}?kind={}&model=go&prior={}",
            self.id,
            self.kind.label(),
            self.prior
        )
    }

    /// A failure-time project: the first `n` events of a GO trace as
    /// history, then up to `reserve` single-event appends.
    fn times(
        id: String,
        prior: String,
        rng: &mut Rng,
        n: usize,
        omega: f64,
        beta: f64,
        reserve: usize,
    ) -> Project {
        let times = go_times(rng, omega, beta, n + reserve + 1, f64::INFINITY);
        let n = n.min(times.len().saturating_sub(1));
        let t_end = (times[n - 1] + times[n]) / 2.0;
        let mut history = format!("# t_end={t_end}\n");
        for t in &times[..n] {
            let _ = writeln!(history, "{t}");
        }
        let future = times[n..]
            .iter()
            .map(|t| Batch {
                body: format!("# t_end={t}\n{t}\n"),
                events: 1,
            })
            .collect();
        Project {
            id,
            kind: Kind::Times,
            prior,
            history,
            history_events: n as u64,
            future,
        }
    }

    /// A grouped project in daily bins: `days` bins of history, then
    /// `reserve` single-bin appends (late bins are often empty, as the
    /// GO intensity decays).
    fn grouped(
        id: String,
        prior: String,
        rng: &mut Rng,
        omega: f64,
        beta: f64,
        days: usize,
        reserve: usize,
    ) -> Project {
        let last_day = days + reserve;
        let times = go_times(rng, omega, beta, usize::MAX, last_day as f64);
        let mut counts = vec![0u64; last_day];
        for t in times {
            counts[(t.ceil() as usize).clamp(1, last_day) - 1] += 1;
        }
        let mut history = "# boundary,count\n".to_string();
        for (d, c) in counts[..days].iter().enumerate() {
            let _ = writeln!(history, "{},{c}", d + 1);
        }
        let future = counts[days..]
            .iter()
            .enumerate()
            .map(|(i, &c)| Batch {
                body: format!("# boundary,count\n{},{c}\n", days + i + 1),
                events: c,
            })
            .collect();
        Project {
            id,
            kind: Kind::Grouped,
            prior,
            history,
            history_events: counts[..days].iter().sum(),
            future,
        }
    }
}

/// Faults left after the history of an `ingest-monitored` project: the
/// posterior's width, and so the cost of scoring a chart point, grows
/// with them, while the appends of a run must not exhaust them.
const INGEST_RESERVE: usize = 250;
/// Appends held in reserve per `refit-churn` project: more than a run
/// of up to 60 s appends.
const REFIT_RESERVE: usize = 4000;

/// The projects of a workload, generated from the seed.
pub fn projects(workload: Workload, seed: u64) -> Vec<Project> {
    let mut rng = Rng::stream(seed, workload.name());
    match workload {
        // Eight monitored failure-time projects with 30–58 events of
        // history, alternating an informative prior centred on the
        // generating parameters (10% sd) with the flat prior: both give
        // posteriors of a few hundred components, so chart scoring costs
        // about the same on either and the latency distribution has one
        // mode. The sizes are a fixed ladder (shuffled per prior) so that
        // seeds vary the traces, not the amount of work.
        Workload::IngestMonitored => {
            let mut sizes = [[30, 38, 46, 54], [34, 42, 50, 58]];
            for ladder in &mut sizes {
                rng.shuffle(ladder);
            }
            (0..8)
                .map(|i| {
                    let n = sizes[i % 2][i / 2];
                    let beta = 1e-5 * rng.range(0.8, 1.25);
                    let omega = (n + INGEST_RESERVE) as f64;
                    let prior = if i % 2 == 0 {
                        format!("{omega},{},{beta},{}", omega / 10.0, beta / 10.0)
                    } else {
                        "flat".to_string()
                    };
                    Project::times(
                        format!("im{i}"),
                        prior,
                        &mut rng,
                        n,
                        omega,
                        beta,
                        INGEST_RESERVE,
                    )
                })
                .collect()
        }
        // {times, grouped} × {paper-info, flat} × {40, 300 events}. The
        // size order flips with the prior so that every client of two
        // owns one project of each kind and prior, two of each size.
        Workload::RefitChurn => {
            let mut out = Vec::new();
            for kind in [Kind::Times, Kind::Grouped] {
                for info in [true, false] {
                    let sizes = if info { [40, 300] } else { [300, 40] };
                    for n in sizes {
                        let id = format!(
                            "rc-{}-{}-{n}",
                            kind.label(),
                            if info { "info" } else { "flat" }
                        );
                        let prior = match (info, kind) {
                            (false, _) => "flat",
                            (true, Kind::Times) => "paper-info-times",
                            (true, Kind::Grouped) => "paper-info-grouped",
                        }
                        .to_string();
                        out.push(match kind {
                            Kind::Times => {
                                let beta = 1e-5 * rng.range(0.8, 1.25);
                                let omega = (n + REFIT_RESERVE) as f64;
                                Project::times(id, prior, &mut rng, n, omega, beta, REFIT_RESERVE)
                            }
                            Kind::Grouped => {
                                // 45 days of history holding about 5/8
                                // of the expected faults.
                                let days = 45;
                                let omega = 1.6 * n as f64;
                                let beta = -(1.0f64 - 1.0 / 1.6).ln() / days as f64;
                                Project::grouped(
                                    id,
                                    prior,
                                    &mut rng,
                                    omega,
                                    beta,
                                    days,
                                    REFIT_RESERVE,
                                )
                            }
                        });
                    }
                }
            }
            out
        }
        // {40, 150, 300 events} × {paper-info, flat}, two traces each,
        // queried read-only.
        Workload::QueryPosterior => {
            let mut out = Vec::new();
            for n in [40, 150, 300] {
                for info in [true, false] {
                    for copy in 0..2 {
                        let beta = 1e-5 * rng.range(0.8, 1.25);
                        let prior = if info { "paper-info-times" } else { "flat" }.to_string();
                        let id = format!("qp-{}-{n}-{copy}", if info { "info" } else { "flat" });
                        out.push(Project::times(
                            id,
                            prior,
                            &mut rng,
                            n,
                            1.6 * n as f64,
                            beta,
                            64,
                        ));
                    }
                }
            }
            out
        }
    }
}

/// The read-only panels of the posterior dashboard, queried in order.
pub const PANELS: [&str; 3] = [
    "interval?param=omega&level=0.99",
    "interval?param=beta&level=0.99",
    "spc",
];

/// One timed operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `POST /projects/{id}/events` with the project's next batch.
    Append { project: usize, batch: usize },
    /// Append, then `GET /projects/{id}/fit` on the fresh version.
    AppendFit { project: usize, batch: usize },
    /// `GET /projects/{id}/<panel>`.
    Query { project: usize, panel: usize },
}

#[cfg(test)]
impl Op {
    fn describe(&self, out: &mut String) {
        let _ = match self {
            Op::Append { project, batch } => writeln!(out, "append {project} {batch}"),
            Op::AppendFit { project, batch } => writeln!(out, "append+fit {project} {batch}"),
            Op::Query { project, panel } => writeln!(out, "query {project} {}", PANELS[*panel]),
        };
    }
}

/// The op sequence of one closed-loop client. Each project belongs to
/// exactly one client, so a project's batches are appended in order.
#[derive(Debug, Clone)]
pub struct ClientStream {
    rng: Rng,
    workload: Workload,
    owned: Vec<usize>,
    times: Vec<bool>,
    next_batch: Vec<usize>,
    round: Vec<Op>,
}

impl ClientStream {
    /// Client `client` of `clients`; `next_batch[p]` is the first batch
    /// of project `p` not yet appended.
    pub fn new(
        workload: Workload,
        seed: u64,
        client: usize,
        clients: usize,
        projects: &[Project],
        next_batch: Vec<usize>,
    ) -> ClientStream {
        let owned = match workload {
            Workload::QueryPosterior => (0..projects.len()).collect(),
            _ => (client..projects.len()).step_by(clients).collect(),
        };
        let times = projects.iter().map(|p| p.kind == Kind::Times).collect();
        ClientStream {
            rng: Rng::stream(seed, &format!("{}/client{client}", workload.name())),
            workload,
            owned,
            times,
            next_batch,
            round: Vec::new(),
        }
    }

    /// The next operation; `None` once every owned project has run out
    /// of batches (`future_lens[p]` is project `p`'s batch count).
    pub fn next_op(&mut self, future_lens: &[usize]) -> Option<Op> {
        for _ in 0..=self.owned.len() * PANELS.len() {
            let op = self.next_any()?;
            match op {
                Op::Append { project, batch } | Op::AppendFit { project, batch }
                    if batch >= future_lens[project] =>
                {
                    self.owned.retain(|&p| p != project);
                    self.round.retain(|o| !matches!(o, Op::Append { project: p, .. } | Op::AppendFit { project: p, .. } if *p == project));
                }
                _ => return Some(op),
            }
        }
        None
    }

    fn next_any(&mut self) -> Option<Op> {
        if self.owned.is_empty() {
            return None;
        }
        if self.round.is_empty() {
            // One round visits every owned project once, in a fresh
            // seeded order; a dashboard round shows every panel of a
            // project before moving on.
            let mut order = self.owned.clone();
            self.rng.shuffle(&mut order);
            for &project in order.iter().rev() {
                match self.workload {
                    Workload::QueryPosterior => {
                        for panel in (0..PANELS.len()).rev() {
                            self.round.push(Op::Query { project, panel });
                        }
                    }
                    Workload::IngestMonitored => self.round.push(Op::Append { project, batch: 0 }),
                    // Failure-time refits cost a fraction of grouped ones;
                    // visiting them twice as often keeps the latency
                    // median inside one mode instead of between two.
                    Workload::RefitChurn => {
                        let visits = if self.times[project] { 2 } else { 1 };
                        for _ in 0..visits {
                            self.round.push(Op::AppendFit { project, batch: 0 });
                        }
                    }
                }
            }
        }
        let op = self.round.pop()?;
        Some(match op {
            Op::Append { project, .. } | Op::AppendFit { project, .. } => {
                let batch = self.next_batch[project];
                self.next_batch[project] += 1;
                match op {
                    Op::Append { .. } => Op::Append { project, batch },
                    _ => Op::AppendFit { project, batch },
                }
            }
            query => query,
        })
    }
}

/// One open-loop send: due `due_ms` after the phase starts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scheduled {
    pub due_ms: f64,
    pub op: Op,
}

/// The open-loop schedule at `rate` ops/s for `secs` seconds, split by
/// sender. Sends are evenly spaced; sender `s` owns the projects `p` with
/// `p % senders == s`, and the sends cycle over the senders in turn (each
/// over its own projects in a seeded order), so every sender sees evenly
/// spaced sends whatever the seed. A project whose batches run out drops
/// out of its sender's cycle.
pub fn open_schedule(
    seed: u64,
    future_lens: &[usize],
    senders: usize,
    rate: f64,
    secs: f64,
) -> (Vec<Vec<Scheduled>>, Vec<usize>) {
    let projects = future_lens.len();
    let mut rng = Rng::stream(seed, "ingest-monitored/schedule");
    let mut owned: Vec<Vec<usize>> = (0..senders)
        .map(|s| (s..projects).step_by(senders).collect())
        .collect();
    for own in &mut owned {
        rng.shuffle(own);
    }
    let total = (rate * secs).round() as usize;
    let mut next_batch = vec![0usize; projects];
    let mut turns = vec![0usize; senders];
    let mut per_sender = vec![Vec::new(); senders];
    for i in 0..total {
        let s = i % senders;
        owned[s].retain(|&p| next_batch[p] < future_lens[p]);
        if owned[s].is_empty() {
            continue;
        }
        let project = owned[s][turns[s] % owned[s].len()];
        turns[s] += 1;
        let batch = next_batch[project];
        next_batch[project] += 1;
        per_sender[s].push(Scheduled {
            due_ms: i as f64 * 1000.0 / rate,
            op: Op::Append { project, batch },
        });
    }
    (per_sender, next_batch)
}

/// A byte rendering of a workload's inputs and first `ops` operations
/// per client, for the determinism check.
#[cfg(test)]
pub fn describe(workload: Workload, seed: u64, clients: usize, ops: usize) -> Vec<u8> {
    let projects = projects(workload, seed);
    let mut out = String::new();
    for p in &projects {
        let _ = writeln!(
            out,
            "{} {}\n{}",
            p.create_target(),
            p.history_events,
            p.history
        );
        for b in &p.future {
            out.push_str(&b.body);
        }
    }
    let lens: Vec<usize> = projects.iter().map(|p| p.future.len()).collect();
    let mut start = vec![0usize; projects.len()];
    if workload == Workload::IngestMonitored {
        let (schedule, next) = open_schedule(seed, &lens, clients, 50.0, 4.0);
        for s in schedule.iter().flatten() {
            let _ = write!(out, "{} ", s.due_ms);
            s.op.describe(&mut out);
        }
        start = next;
    }
    for c in 0..clients {
        let mut stream = ClientStream::new(workload, seed, c, clients, &projects, start.clone());
        for _ in 0..ops {
            if let Some(op) = stream.next_op(&lens) {
                op.describe(&mut out);
            }
        }
    }
    out.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_op_lists() {
        for w in Workload::ALL {
            let a = describe(w, 7, 2, 200);
            assert_eq!(a, describe(w, 7, 2, 200), "{}", w.name());
            assert_ne!(a, describe(w, 8, 2, 200), "{} ignores its seed", w.name());
        }
    }

    #[test]
    fn every_append_extends_its_project_in_order() {
        for w in [Workload::IngestMonitored, Workload::RefitChurn] {
            let projects = projects(w, 3);
            let lens: Vec<usize> = projects.iter().map(|p| p.future.len()).collect();
            let mut seen = vec![Vec::new(); projects.len()];
            for c in 0..2 {
                let mut stream = ClientStream::new(w, 3, c, 2, &projects, vec![0; projects.len()]);
                for _ in 0..100 {
                    match stream.next_op(&lens).expect("reserve outlasts 100 ops") {
                        Op::Append { project, batch } | Op::AppendFit { project, batch } => {
                            seen[project].push((c, batch));
                        }
                        Op::Query { .. } => unreachable!(),
                    }
                }
            }
            for s in &seen {
                // One owner per project, consecutive batches.
                assert!(s
                    .windows(2)
                    .all(|w| w[0].0 == w[1].0 && w[1].1 == w[0].1 + 1));
            }
        }
    }

    #[test]
    fn open_schedule_is_evenly_spaced_and_skips_exhausted_projects() {
        let mut lens = vec![100; 8];
        lens[3] = 5;
        let (schedule, next) = open_schedule(1, &lens, 2, 100.0, 2.0);
        assert_eq!(schedule.iter().map(Vec::len).sum::<usize>(), 200);
        assert_eq!(next.iter().sum::<usize>(), 200);
        assert_eq!(next[3], 5);
        for sender in &schedule {
            assert_eq!(sender.len(), 100);
            // Every other send of the run, 20 ms apart.
            assert!(sender
                .windows(2)
                .all(|w| (w[1].due_ms - w[0].due_ms - 20.0).abs() < 1e-9));
        }
    }

    #[test]
    fn client_stream_drops_exhausted_projects() {
        let projects = &projects(Workload::RefitChurn, 1)[..4];
        let mut stream = ClientStream::new(Workload::RefitChurn, 1, 0, 2, projects, vec![0; 4]);
        let ops: Vec<Op> = std::iter::from_fn(|| stream.next_op(&[3, 0, 1, 0])).collect();
        assert_eq!(ops.len(), 4);
    }

    #[test]
    fn generated_histories_are_valid_batches() {
        for w in Workload::ALL {
            for p in projects(w, 11) {
                assert!(p.history_events > 0, "{}", p.id);
                assert!(p.future.len() >= 8, "{}", p.id);
                match p.kind {
                    Kind::Times => {
                        nhpp_data::io::read_failure_times(p.history.as_bytes())
                            .expect("times history");
                    }
                    Kind::Grouped => {
                        nhpp_data::io::read_grouped(p.history.as_bytes()).expect("grouped history");
                    }
                }
            }
        }
    }
}
