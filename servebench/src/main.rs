//! `servebench`: the repository's service benchmark.
//!
//! Boots `nhpp-serve` in-process, drives one workload from at most
//! `nproc` client threads, checks every response, and prints one JSON
//! result line. See `servebench/README.md` for workloads and metrics.
//!
//! ```text
//! servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```

mod client;
mod gen;
mod layers;
mod run;
mod service;
mod stats;
mod trace;

use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    IngestMonitored,
    RefitChurn,
    QueryPosterior,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::IngestMonitored,
        Workload::RefitChurn,
        Workload::QueryPosterior,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::IngestMonitored => "ingest-monitored",
            Workload::RefitChurn => "refit-churn",
            Workload::QueryPosterior => "query-posterior",
        }
    }

    /// Why the workload is in the benchmark: the layers it loads.
    pub fn why(self) -> &'static str {
        match self {
            Workload::IngestMonitored => {
                "the write path: open-loop single-event appends to monitored projects, so chart \
                 scoring, the registry and fsync do the work; fits run only in the flush tick"
            }
            Workload::RefitChurn => {
                "append then fit from one client, so every query waits on a fresh warm-started VB2 \
                 refit and work moved into fit time shows; posterior queries and the monitor do \
                 almost none"
            }
            Workload::QueryPosterior => {
                "read-only dashboard panels over warm posteriors, so quantile bisection and the \
                 reliability integral do the work; fits are all cache hits"
            }
        }
    }

    fn parse(text: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == text)
    }
}

/// Parsed command line.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let workload = Workload::parse(workload).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload '{workload}' ({})", names.join("|"))
    })?;
    let seed = value("--seed")?
        .parse()
        .map_err(|_| "--seed must be a non-negative integer".to_string())?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number".to_string())?;
    if !(1.0..=600.0).contains(&seconds) {
        return Err("--seconds must be in [1, 600]".to_string());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".to_string()),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("servebench: {message}");
            eprintln!("usage: servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match run::main(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(err) => {
            eprintln!("servebench: {err}");
            ExitCode::from(3)
        }
    }
}
