//! Spans: what the traced pass records at each layer boundary.
//!
//! Spans stay in memory while a workload runs and are written as JSON
//! lines when it ends. A span's *self time* is its duration minus the
//! part of that interval its children cover — overlapping children
//! (parallel scatter branches) are unioned, not summed.

use std::cell::Cell;
use std::collections::HashMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval. Times are microseconds since the tracer was
/// created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one (`0` for a root).
    pub parent: u64,
    /// The root span's id, shared by every span of one provider call
    /// (`0` for wire traffic outside any call, e.g. a raw open-loop op).
    pub trace: u64,
    /// `provider.<class>`, `wire.dns`, `wire.map`, `serve.dns`, `serve.map`.
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Destination (wire) or serving (serve) endpoint; `0` for roots.
    pub endpoint: u64,
    /// Request + response bytes (wire), request bytes (serve).
    pub bytes: u64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

thread_local! {
    /// The provider-call root active on this thread, as `(id, trace)`.
    static CURRENT_ROOT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// The in-memory span sink shared by the traced transport, the timing
/// services and the drivers.
pub struct Tracer {
    epoch: Instant,
    enabled: AtomicBool,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            enabled: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Spans are recorded only while enabled, so one deployment can run
    /// an untraced and a traced segment back to back (their rates give
    /// the tracing overhead).
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::SeqCst);
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_nanos() as f64 / 1_000.0
    }

    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn record(&self, span: Span) {
        self.spans.lock().expect("span sink poisoned").push(span);
    }

    /// Opens a root span on this thread; wire spans submitted from the
    /// thread until [`Tracer::end_root`] become its children.
    pub fn begin_root(&self) -> Option<(u64, f64)> {
        if !self.enabled() {
            return None;
        }
        let id = self.next_id();
        CURRENT_ROOT.with(|c| c.set((id, id)));
        Some((id, self.now_us()))
    }

    pub fn end_root(&self, root: Option<(u64, f64)>, name: &'static str) {
        let Some((id, start_us)) = root else { return };
        let end_us = self.now_us();
        CURRENT_ROOT.with(|c| c.set((0, 0)));
        self.record(Span {
            id,
            parent: 0,
            trace: id,
            name,
            start_us,
            end_us,
            endpoint: 0,
            bytes: 0,
        });
    }

    /// `(parent, trace)` for a wire span submitted on this thread.
    pub fn current_root(&self) -> (u64, u64) {
        CURRENT_ROOT.with(|c| c.get())
    }

    /// Takes every span recorded so far.
    pub fn drain(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span sink poisoned"))
    }
}

/// Writes spans as JSON lines, one object per span.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"trace\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"endpoint\":{},\"bytes\":{}}}",
            s.id, s.parent, s.trace, s.name, s.start_us, s.end_us, s.endpoint, s.bytes
        )?;
    }
    out.flush()
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
pub fn union_len(intervals: &mut [(f64, f64)], lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut cursor = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(cursor);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    covered
}

/// Children of every span, by parent id.
pub fn children_of(spans: &[Span]) -> HashMap<u64, Vec<usize>> {
    let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push(i);
        }
    }
    children
}

/// Self time of `span`: its duration minus the union of its children.
pub fn self_time_us(span: &Span, spans: &[Span], children: &HashMap<u64, Vec<usize>>) -> f64 {
    let mut intervals: Vec<(f64, f64)> = children
        .get(&span.id)
        .map(|kids| {
            kids.iter()
                .map(|&i| (spans[i].start_us, spans[i].end_us))
                .collect()
        })
        .unwrap_or_default();
    span.duration_us() - union_len(&mut intervals, span.start_us, span.end_us)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_us: f64, end_us: f64) -> Span {
        Span {
            id,
            parent,
            trace: 1,
            name: "t",
            start_us,
            end_us,
            endpoint: 0,
            bytes: 0,
        }
    }

    #[test]
    fn self_time_unions_overlapping_children() {
        // Root 0..100 with two overlapping branches (10..50, 30..70), a
        // disjoint one (80..90) and a grandchild that must not count
        // against the root.
        let spans = vec![
            span(1, 0, 0.0, 100.0),
            span(2, 1, 10.0, 50.0),
            span(3, 1, 30.0, 70.0),
            span(4, 1, 80.0, 90.0),
            span(5, 2, 20.0, 40.0),
        ];
        let children = children_of(&spans);
        // Union of children = 10..70 + 80..90 = 70, not 40+40+10 = 90.
        assert_eq!(self_time_us(&spans[0], &spans, &children), 30.0);
        assert_eq!(self_time_us(&spans[1], &spans, &children), 20.0);
        assert_eq!(self_time_us(&spans[2], &spans, &children), 40.0);
    }

    #[test]
    fn union_clips_to_the_parent_interval() {
        let mut intervals = vec![(-5.0, 5.0), (95.0, 120.0), (40.0, 60.0), (45.0, 50.0)];
        assert_eq!(union_len(&mut intervals, 0.0, 100.0), 5.0 + 20.0 + 5.0);
        assert_eq!(union_len(&mut [], 0.0, 100.0), 0.0);
    }

    #[test]
    fn roots_parent_wire_spans_only_while_open_and_enabled() {
        let tracer = Tracer::new();
        assert!(
            tracer.begin_root().is_none(),
            "disabled tracer records nothing"
        );
        tracer.set_enabled(true);
        let root = tracer.begin_root();
        let (id, _) = root.expect("enabled");
        assert_eq!(tracer.current_root(), (id, id));
        tracer.end_root(root, "provider.search");
        assert_eq!(tracer.current_root(), (0, 0));
        let spans = tracer.drain();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "provider.search");
        assert!(spans[0].end_us >= spans[0].start_us);
        assert!(tracer.drain().is_empty());
    }
}
