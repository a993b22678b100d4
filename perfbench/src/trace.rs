//! In-memory spans around the benchmark's calls into each layer, and the
//! wall-clock attribution that turns them into per-layer self times.
//!
//! A span records its name, start, end, parent and a group id shared by
//! every span of one repetition or job. Spans stay in memory while the
//! benchmark runs and are written out once, at exit, as NDJSON.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval. Times are seconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// `0` for a root span.
    pub parent: u64,
    pub group: u64,
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Seconds since the tracer was created.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// A fresh span id (never `0`).
    pub fn next_id(&self) -> u64 {
        // Ids only need to be unique; they publish no other data.
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Runs `f` inside span `name`; `f` receives the span's id so it can
    /// parent further spans.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: u64,
        group: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let id = self.next_id();
        let start = self.now();
        let out = f(id);
        let end = self.now();
        self.record(Span {
            id,
            parent,
            group,
            name,
            start,
            end,
        });
        out
    }

    /// Records an interval measured elsewhere (e.g. between two event
    /// timestamps).
    pub fn record(&self, span: Span) {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .push(span);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"group\": {}, \"name\": \"{}\", \"start_s\": {}, \"end_s\": {}}}",
                s.id, s.parent, s.group, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Splits `root`'s wall-clock interval between the spans below it.
///
/// Each instant goes to the innermost spans active at that instant (a
/// span with an active child gives the instant to the child); when `k`
/// spans run concurrently on different threads each gets `1/k` of it.
/// Instants no descendant covers are unattributed. So the returned
/// per-name self times plus the unattributed time sum to the root's
/// duration exactly, with or without concurrency.
pub fn attribute(spans: &[Span], root: &Span) -> (BTreeMap<&'static str, f64>, f64) {
    let parent_of: HashMap<u64, u64> = spans.iter().map(|s| (s.id, s.parent)).collect();
    let below_root = |mut id: u64| loop {
        match parent_of.get(&id) {
            Some(&p) if p == root.id => return true,
            Some(&p) if p != 0 => id = p,
            _ => return false,
        }
    };
    let desc: Vec<Span> = spans
        .iter()
        .filter(|s| below_root(s.id))
        .map(|s| Span {
            start: s.start.max(root.start),
            end: s.end.min(root.end),
            ..s.clone()
        })
        .filter(|s| s.end > s.start)
        .collect();
    let mut cuts: Vec<f64> = desc.iter().flat_map(|s| [s.start, s.end]).collect();
    cuts.push(root.start);
    cuts.push(root.end);
    cuts.sort_by(f64::total_cmp);
    cuts.dedup();

    let mut self_time: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut unattributed = 0.0;
    for w in cuts.windows(2) {
        let (a, b) = (w[0], w[1]);
        let active: Vec<&Span> = desc.iter().filter(|s| s.start <= a && s.end >= b).collect();
        let parents: HashSet<u64> = active.iter().map(|s| s.parent).collect();
        let innermost: Vec<&&Span> = active.iter().filter(|s| !parents.contains(&s.id)).collect();
        if innermost.is_empty() {
            unattributed += b - a;
        } else {
            let share = (b - a) / innermost.len() as f64;
            for s in innermost {
                *self_time.entry(s.name).or_insert(0.0) += share;
            }
        }
    }
    (self_time, unattributed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            group: 0,
            name,
            start,
            end,
        }
    }

    #[test]
    fn nested_and_concurrent_spans_sum_to_the_root() {
        let spans = vec![
            span(1, 0, "root", 0.0, 10.0),
            span(2, 1, "a", 1.0, 5.0),
            span(3, 2, "b", 2.0, 3.0),
            span(4, 1, "c", 4.0, 8.0),
        ];
        let (self_time, unattributed) = attribute(&spans, &spans[0]);
        // [0,1) none; [1,2) a; [2,3) b; [3,4) a; [4,5) a|c; [5,8) c; [8,10) none.
        assert!((self_time["a"] - 2.5).abs() < 1e-12);
        assert!((self_time["b"] - 1.0).abs() < 1e-12);
        assert!((self_time["c"] - 3.5).abs() < 1e-12);
        assert!((unattributed - 3.0).abs() < 1e-12);
        let total: f64 = self_time.values().sum::<f64>() + unattributed;
        assert!((total - 10.0).abs() < 1e-12);
    }
}
