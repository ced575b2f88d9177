//! In-memory spans for the traced run.
//!
//! Every call the traced pipeline makes into a layer is wrapped in a
//! span: name, start, end, parent and thread. Spans stay in memory and
//! are written out once, after the run. Two views are derived from them:
//!
//! * [`Tracer::wall_self`] — self time as a share of the wall clock. At
//!   every instant the wall clock is split equally among the innermost
//!   open spans (those with no open child on any thread). On one thread
//!   this is the usual "span minus children"; with workers in parallel
//!   it makes the self times of a root's subtree add up to exactly the
//!   root's duration, so the layers account for the traced wall time.
//! * [`Tracer::busy`] — the summed durations of one span name across
//!   threads (thread time), for per-unit costs such as ns per op.

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    /// `u64::MAX` while the span is open.
    pub end: u64,
    pub parent: Option<SpanId>,
    pub thread: usize,
}

/// Collects spans from any number of threads.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD: Cell<Option<usize>> = const { Cell::new(None) };
}

fn thread_index() -> usize {
    THREAD.with(|t| {
        t.get().unwrap_or_else(|| {
            let id = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
            t.set(Some(id));
            id
        })
    })
}

/// Closes its span when dropped.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    id: SpanId,
}

impl Guard<'_> {
    pub fn id(&self) -> SpanId {
        self.id
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let now = self.tracer.now();
        let mut spans = self.tracer.lock();
        if let Some(s) = spans.get_mut(self.id) {
            s.end = now;
        }
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX - 1)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("span list lock poisoned: a traced job panicked while recording")
    }

    /// Opens a span; it closes when the guard drops.
    pub fn open(&self, name: &'static str, parent: Option<SpanId>) -> Guard<'_> {
        let thread = thread_index();
        let mut spans = self.lock();
        // Read the clock under the lock so span order and time order agree.
        let start = self.now();
        spans.push(Span {
            name,
            start,
            end: u64::MAX,
            parent,
            thread,
        });
        Guard {
            tracer: self,
            id: spans.len() - 1,
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&self, name: &'static str, parent: SpanId, f: impl FnOnce() -> T) -> T {
        let _g = self.open(name, Some(parent));
        f()
    }

    /// How many spans named `name` were opened.
    pub fn count(&self, name: &str) -> u64 {
        self.lock().iter().filter(|s| s.name == name).count() as u64
    }

    /// Duration of one closed span, in seconds.
    pub fn seconds(&self, id: SpanId) -> f64 {
        self.lock()
            .get(id)
            .map_or(0.0, |s| s.end.saturating_sub(s.start) as f64 * 1e-9)
    }

    /// Summed durations (thread time, seconds) of every closed span named
    /// `name`.
    pub fn busy(&self, name: &str) -> f64 {
        self.lock()
            .iter()
            .filter(|s| s.name == name && s.end != u64::MAX)
            .map(|s| s.end.saturating_sub(s.start) as f64 * 1e-9)
            .sum()
    }

    /// Wall-clock self time (seconds) per span name over the subtree of
    /// `root`; the values sum to the root's duration.
    pub fn wall_self(&self, root: SpanId) -> BTreeMap<&'static str, f64> {
        wall_self(&self.lock(), root)
    }

    /// Writes every span as one JSON line, once, at the end of a run.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let spans = self.lock();
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"thread\":{}}}",
                s.name, s.start, s.end, s.thread
            )?;
        }
        out.flush()
    }
}

/// See [`Tracer::wall_self`].
pub fn wall_self(spans: &[Span], root: SpanId) -> BTreeMap<&'static str, f64> {
    let n = spans.len();
    // Depth below `root`, or None for spans outside its subtree.
    let mut depth: Vec<Option<u32>> = vec![None; n];
    for (id, slot) in depth.iter_mut().enumerate() {
        let mut d = 0u32;
        let mut cur = id;
        loop {
            if cur == root {
                *slot = Some(d);
                break;
            }
            match spans[cur].parent {
                // Parents are always recorded before their children.
                Some(p) if p < cur => {
                    cur = p;
                    d += 1;
                }
                _ => break,
            }
        }
    }
    // Events: (time, 0 = close / 1 = open, tie-break on depth, span).
    // At equal times closes go first, parents open before children and
    // children close before parents.
    let mut events: Vec<(u64, u8, i64, SpanId)> = Vec::with_capacity(2 * n);
    for (id, s) in spans.iter().enumerate() {
        if let Some(d) = depth[id] {
            if s.end == u64::MAX {
                continue;
            }
            events.push((s.start, 1, i64::from(d), id));
            events.push((s.end, 0, -i64::from(d), id));
        }
    }
    events.sort_unstable();
    let mut open = vec![false; n];
    let mut open_kids = vec![0u32; n];
    let mut leaves: BTreeSet<SpanId> = BTreeSet::new();
    let mut acc: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut prev = events.first().map_or(0, |e| e.0);
    for &(t, kind, _, id) in &events {
        if t > prev && !leaves.is_empty() {
            let share = (t - prev) as f64 * 1e-9 / leaves.len() as f64;
            for &l in &leaves {
                *acc.entry(spans[l].name).or_insert(0.0) += share;
            }
        }
        prev = prev.max(t);
        let parent = spans[id].parent.filter(|&p| open[p]);
        if kind == 1 {
            open[id] = true;
            if let Some(p) = parent {
                if open_kids[p] == 0 {
                    leaves.remove(&p);
                }
                open_kids[p] += 1;
            }
            if open_kids[id] == 0 {
                leaves.insert(id);
            }
        } else {
            open[id] = false;
            leaves.remove(&id);
            if let Some(p) = parent {
                open_kids[p] -= 1;
                if open_kids[p] == 0 {
                    leaves.insert(p);
                }
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            thread: 0,
        }
    }

    #[test]
    fn serial_self_time_is_span_minus_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 20, 30, Some(1)),
        ];
        let w = wall_self(&spans, 0);
        assert!((w["root"] - 70e-9).abs() < 1e-15);
        assert!((w["a"] - 20e-9).abs() < 1e-15);
        assert!((w["b"] - 10e-9).abs() < 1e-15);
    }

    #[test]
    fn parallel_children_split_the_wall_and_sum_to_the_root() {
        // Two workers under one phase span: [10,50) and [30,70).
        let spans = vec![
            span("root", 0, 100, None),
            span("phase", 5, 80, Some(0)),
            span("x", 10, 50, Some(1)),
            span("y", 30, 70, Some(1)),
            span("outside", 0, 500, None),
        ];
        let w = wall_self(&spans, 0);
        let total: f64 = w.values().sum();
        assert!((total - 100e-9).abs() < 1e-15, "{w:?}");
        // x: 20 alone + 10 shared; y: 10 shared + 20 alone.
        assert!((w["x"] - 30e-9).abs() < 1e-15);
        assert!((w["y"] - 30e-9).abs() < 1e-15);
        assert!((w["phase"] - 15e-9).abs() < 1e-15);
        assert!(!w.contains_key("outside"));
    }

    #[test]
    fn tracer_records_nested_spans_across_threads() {
        let t = Tracer::new();
        let root = t.open("root", None);
        let rid = root.id();
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| t.time("work", rid, || std::hint::black_box(1 + 1)));
            }
        });
        drop(root);
        let w = t.wall_self(rid);
        let total: f64 = w.values().sum();
        assert!((total - t.seconds(rid)).abs() < 1e-9);
        assert_eq!(t.count("work"), 2);
    }
}
