//! Spans recorded by the benchmark around its calls into each layer,
//! kept in memory, written out at exit and reduced to self times.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call. `parent` is the id of the span that caused it
/// (0 for a root); spans of one operation share `op`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span store shared by every benchmark thread.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn ns_at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn new_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span with a preallocated id.
    pub fn record(&self, id: u64, parent: u64, op: u64, name: &str, start_ns: u64, end_ns: u64) {
        self.spans.lock().expect("span store poisoned").push(Span {
            id,
            parent,
            op,
            name: name.to_string(),
            start_ns,
            end_ns,
        });
    }

    /// Times `f` as a span named `name`; the result passes through
    /// `black_box` so a replayed call is never optimised away.
    pub fn time<T>(&self, parent: u64, op: u64, name: &str, f: impl FnOnce() -> T) -> T {
        let start = self.now_ns();
        let out = std::hint::black_box(f());
        let end = self.now_ns();
        self.record(self.new_id(), parent, op, name, start, end);
        out
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span store poisoned"))
    }
}

/// Writes spans as tab-separated `id parent op name start_ns end_ns`.
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\top\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get(&s.id) else {
                return s.duration_ns();
            };
            let mut clipped: Vec<(u64, u64)> = kids
                .iter()
                .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                .filter(|(a, b)| b > a)
                .collect();
            clipped.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in clipped {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Self times in milliseconds, grouped by span name.
pub fn self_ms_by_name(spans: &[Span]) -> BTreeMap<String, Vec<f64>> {
    let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        out.entry(s.name.clone()).or_default().push(t as f64 / 1e6);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name: format!("s{id}"),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, 0, 100),
            // Two overlapping children cover [10, 50); one nested
            // grandchild must not reduce the root again.
            span(2, 1, 10, 40),
            span(3, 1, 30, 50),
            span(4, 2, 15, 20),
            // A child running past its parent is clipped to it.
            span(5, 1, 90, 130),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 30 - 5, 20, 5, 40]);
    }

    #[test]
    fn leaf_and_disjoint_spans_keep_their_duration() {
        let spans = vec![span(1, 0, 5, 9), span(2, 0, 0, 3), span(3, 1, 20, 30)];
        assert_eq!(self_times(&spans), vec![4, 3, 10]);
        let by_name = self_ms_by_name(&spans);
        assert_eq!(by_name["s1"], vec![4e-6]);
    }

    #[test]
    fn tracer_records_nested_calls() {
        let tracer = Tracer::new();
        let root = tracer.new_id();
        let start = tracer.now_ns();
        tracer.time(root, 7, "child", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tracer.record(root, 0, 7, "root", start, tracer.now_ns());
        let spans = tracer.take();
        let by_name = self_ms_by_name(&spans);
        assert!(by_name["child"][0] >= 2.0);
        assert!(by_name["root"][0] < by_name["child"][0]);
    }
}
