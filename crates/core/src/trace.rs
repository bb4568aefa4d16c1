//! Hierarchical span tracing with Chrome Trace Event export.
//!
//! The telemetry layer ([`crate::telemetry`]) answers *how much* work
//! each pipeline stage did; this module answers *when* and *in what
//! nesting*. A [`Tracer`] collects [`SpanRecord`]s — named wall-clock
//! intervals tagged with a thread id — and exports them in the Chrome
//! Trace Event Format, loadable in Perfetto (<https://ui.perfetto.dev>)
//! or `chrome://tracing`.
//!
//! Design points, mirroring the zero-cost sink idiom:
//!
//! * **No-op default** — [`Tracer::disabled`] carries no state; opening
//!   a span against it never reads the clock, so untraced runs pay one
//!   branch per span site.
//! * **RAII spans** — [`Tracer::span`] / [`TraceBuffer::span`] return a
//!   [`SpanGuard`] that records the interval when dropped; nesting in
//!   the exported trace follows lexical scope.
//! * **One clock per stage** — a pipeline stage's span is not a guard
//!   but the interval of its [`StageClock`](crate::StageClock), recorded
//!   onto a [`Lane`] with [`Lane::record`]; the same interval feeds the
//!   stage's metrics timer and histogram.
//! * **Cheap per-thread buffers** — the parallel miner's workers each
//!   take a [`TraceBuffer`] via [`Tracer::worker`]: a plain `Vec`
//!   behind a `RefCell`, flushed into the shared tracer exactly once
//!   (when the buffer drops at the join barrier). Worker spans carry
//!   their own thread id, so the exported trace shows one lane per
//!   worker.
//!
//! Timestamps are nanoseconds since the tracer's construction; the
//! exporter converts to the microsecond `ts`/`dur` fields the Chrome
//! format specifies.

use std::cell::RefCell;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One completed span: a named interval on one thread lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name (stable, machine-readable; e.g. `count_pairs`).
    pub name: &'static str,
    /// Category, used as the Chrome `cat` field (e.g. `miner`, `codec`).
    pub cat: &'static str,
    /// Trace lane: 0 is the main thread, workers count up from 1.
    pub tid: u32,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// State shared by a tracer and its thread buffers.
#[derive(Debug)]
struct Shared {
    epoch: Instant,
    spans: Mutex<SpanStore>,
    next_tid: AtomicU32,
    /// Maximum retained spans ([`Tracer::with_capacity`]); `None` grows
    /// without bound.
    capacity: Option<usize>,
    /// Spans evicted (or refused) because the ring was full.
    dropped: AtomicU64,
}

/// The retained spans, as a ring once `capacity` is reached: `next` is
/// the slot the oldest span occupies (and the next overwrite target).
#[derive(Debug, Default)]
struct SpanStore {
    spans: Vec<SpanRecord>,
    next: usize,
}

impl SpanStore {
    fn insert(&mut self, record: SpanRecord, capacity: Option<usize>, dropped: &AtomicU64) {
        match capacity {
            Some(0) => {
                dropped.fetch_add(1, Ordering::Relaxed);
            }
            Some(cap) if self.spans.len() >= cap => {
                self.spans[self.next] = record;
                self.next = (self.next + 1) % cap;
                dropped.fetch_add(1, Ordering::Relaxed);
            }
            _ => self.spans.push(record),
        }
    }

    /// The retained spans in insertion order (oldest first).
    fn snapshot(&self) -> Vec<SpanRecord> {
        let mut out = Vec::with_capacity(self.spans.len());
        out.extend_from_slice(&self.spans[self.next..]);
        out.extend_from_slice(&self.spans[..self.next]);
        out
    }
}

impl Shared {
    fn push(&self, record: SpanRecord) {
        // A poisoned mutex means another thread panicked mid-push;
        // dropping this span beats propagating the panic.
        if let Ok(mut store) = self.spans.lock() {
            store.insert(record, self.capacity, &self.dropped);
        }
    }

    /// Bulk insert under one lock acquisition (the [`TraceBuffer`]
    /// flush path).
    fn extend(&self, records: impl IntoIterator<Item = SpanRecord>) {
        if let Ok(mut store) = self.spans.lock() {
            for record in records {
                store.insert(record, self.capacity, &self.dropped);
            }
        }
    }
}

/// A span collector with Chrome Trace Event export. Cloning is cheap
/// and shares the underlying buffer.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    shared: Option<Arc<Shared>>,
}

impl Tracer {
    /// An enabled tracer; the construction instant is timestamp zero.
    pub fn new() -> Tracer {
        Tracer::with_store(None)
    }

    /// An enabled tracer retaining at most `capacity` spans: once full
    /// it behaves as a ring buffer, evicting the oldest span for each
    /// new one, so very long traced runs cannot grow memory without
    /// bound. The evicted-span count is reported by
    /// [`dropped_spans`](Self::dropped_spans) and recorded in the
    /// Chrome export metadata.
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer::with_store(Some(capacity))
    }

    fn with_store(capacity: Option<usize>) -> Tracer {
        Tracer {
            shared: Some(Arc::new(Shared {
                epoch: Instant::now(),
                spans: Mutex::new(SpanStore::default()),
                next_tid: AtomicU32::new(1),
                capacity,
                dropped: AtomicU64::new(0),
            })),
        }
    }

    /// Spans evicted (or refused) by the ring buffer of
    /// [`with_capacity`](Self::with_capacity); always zero for an
    /// unbounded or disabled tracer.
    pub fn dropped_spans(&self) -> u64 {
        self.shared
            .as_ref()
            .map_or(0, |s| s.dropped.load(Ordering::Relaxed))
    }

    /// The no-op tracer: spans opened against it are never timed or
    /// recorded. This is what the plain (un-traced) entry points pass.
    pub fn disabled() -> Tracer {
        Tracer { shared: None }
    }

    /// `true` when spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Opens a span on the main lane (tid 0) with category `procmine`.
    /// The span is recorded when the returned guard drops.
    #[must_use = "the span ends when the guard is dropped"]
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        self.span_cat(name, "procmine")
    }

    /// Opens a span on the main lane (tid 0) with an explicit category.
    #[must_use = "the span ends when the guard is dropped"]
    pub fn span_cat(&self, name: &'static str, cat: &'static str) -> SpanGuard<'_> {
        SpanGuard::open(Lane::Main(self), name, cat)
    }

    /// Allocates a thread-local span buffer with a fresh lane id
    /// (tid ≥ 1). Spans recorded into it are flushed into this tracer
    /// when the buffer drops — one lock acquisition per buffer, not per
    /// span. Disabled tracers hand out inert buffers.
    pub fn worker(&self) -> TraceBuffer {
        match &self.shared {
            Some(shared) => TraceBuffer {
                shared: Some(Arc::clone(shared)),
                tid: shared.next_tid.fetch_add(1, Ordering::Relaxed),
                spans: RefCell::new(Vec::new()),
            },
            None => TraceBuffer {
                shared: None,
                tid: 0,
                spans: RefCell::new(Vec::new()),
            },
        }
    }

    /// Snapshot of every retained span recorded so far (flushed buffers
    /// only), oldest first.
    pub fn records(&self) -> Vec<SpanRecord> {
        match &self.shared {
            Some(shared) => shared
                .spans
                .lock()
                .map(|store| store.snapshot())
                .unwrap_or_default(),
            None => Vec::new(),
        }
    }

    /// Renders the recorded spans as a Chrome Trace Event JSON string.
    pub fn to_chrome_json(&self) -> String {
        let mut out = Vec::new();
        // Infallible: Vec<u8> as a Write sink never errors.
        let _ = self.write_chrome_json(&mut out);
        String::from_utf8(out).unwrap_or_default()
    }

    /// Writes the recorded spans in Chrome Trace Event Format: one
    /// complete (`"ph":"X"`) event per span, `ts`/`dur` in microseconds,
    /// plus process/thread-name metadata events so Perfetto labels the
    /// lanes. Load the file in <https://ui.perfetto.dev> or
    /// `chrome://tracing`.
    pub fn write_chrome_json<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let records = self.records();
        writeln!(w, "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
        write!(
            w,
            "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"tid\":0,\
             \"args\":{{\"name\":\"procmine\"}}}}"
        )?;
        let mut tids: Vec<u32> = records.iter().map(|r| r.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        for tid in tids {
            let label = if tid == 0 {
                "main".to_string()
            } else {
                format!("worker-{tid}")
            };
            write!(
                w,
                ",\n{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{tid},\
                 \"args\":{{\"name\":\"{label}\"}}}}"
            )?;
        }
        for r in &records {
            write!(
                w,
                ",\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3}}}",
                escape(r.name),
                escape(r.cat),
                r.tid,
                r.start_ns as f64 / 1000.0,
                r.dur_ns as f64 / 1000.0,
            )?;
        }
        writeln!(
            w,
            "\n],\"metadata\":{{\"dropped_spans\":{}}}}}",
            self.dropped_spans()
        )
    }
}

/// Minimal JSON string escaping. Span names and categories are static
/// identifiers, so this is belt-and-braces for the exported file; the
/// conformance JSON report reuses it for arbitrary activity names.
pub(crate) fn escape(s: &str) -> String {
    if s.chars().all(|c| c != '"' && c != '\\' && c >= ' ') {
        return s.to_string();
    }
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A per-thread span buffer handed out by [`Tracer::worker`]. Spans
/// recorded into it stay thread-local (no locking) until the buffer is
/// dropped, which flushes them into the owning tracer in one step.
#[derive(Debug)]
pub struct TraceBuffer {
    shared: Option<Arc<Shared>>,
    tid: u32,
    spans: RefCell<Vec<SpanRecord>>,
}

impl TraceBuffer {
    /// This buffer's trace lane id (0 when the tracer is disabled).
    pub fn tid(&self) -> u32 {
        self.tid
    }

    /// Opens a span on this buffer's lane with category `procmine`.
    #[must_use = "the span ends when the guard is dropped"]
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        self.span_cat(name, "procmine")
    }

    /// Opens a span on this buffer's lane with an explicit category.
    #[must_use = "the span ends when the guard is dropped"]
    pub fn span_cat(&self, name: &'static str, cat: &'static str) -> SpanGuard<'_> {
        SpanGuard::open(Lane::Worker(self), name, cat)
    }
}

impl Drop for TraceBuffer {
    fn drop(&mut self) {
        if let Some(shared) = &self.shared {
            let spans = std::mem::take(&mut *self.spans.borrow_mut());
            if !spans.is_empty() {
                shared.extend(spans);
            }
        }
    }
}

/// Where a span lands: a tracer's main lane (tid 0), a worker
/// buffer's lane, or nowhere. Spans on a lane whose tracer is disabled
/// are dropped too, so [`is_enabled`](Self::is_enabled) is the one test
/// for "will a span here be kept".
#[derive(Clone, Copy, Debug)]
pub enum Lane<'t> {
    /// Record nothing.
    Off,
    /// The main lane of a [`Tracer`].
    Main(&'t Tracer),
    /// The lane of a per-thread [`TraceBuffer`].
    Worker(&'t TraceBuffer),
}

impl<'t> From<&'t Tracer> for Lane<'t> {
    fn from(tracer: &'t Tracer) -> Self {
        Lane::Main(tracer)
    }
}

impl<'t> From<&'t TraceBuffer> for Lane<'t> {
    fn from(buffer: &'t TraceBuffer) -> Self {
        Lane::Worker(buffer)
    }
}

impl Lane<'_> {
    /// `true` when a span recorded here is kept.
    pub fn is_enabled(self) -> bool {
        match self {
            Lane::Off => false,
            Lane::Main(tracer) => tracer.shared.is_some(),
            Lane::Worker(buffer) => buffer.shared.is_some(),
        }
    }

    /// Records a completed span that started at `start` and lasted
    /// `dur_ns` nanoseconds. A no-op on a disabled lane.
    pub fn record(self, name: &'static str, cat: &'static str, start: Instant, dur_ns: u64) {
        let span = |shared: &Shared, tid| SpanRecord {
            name,
            cat,
            tid,
            start_ns: start.duration_since(shared.epoch).as_nanos() as u64,
            dur_ns,
        };
        match self {
            Lane::Off => {}
            Lane::Main(tracer) => {
                if let Some(shared) = &tracer.shared {
                    shared.push(span(shared, 0));
                }
            }
            Lane::Worker(buffer) => {
                if let Some(shared) = &buffer.shared {
                    buffer.spans.borrow_mut().push(span(shared, buffer.tid));
                }
            }
        }
    }
}

/// RAII guard for one open span: created by [`Tracer::span`] or
/// [`TraceBuffer::span`], records the elapsed interval when dropped.
/// Against a disabled tracer the guard holds no timestamp and its drop
/// is a no-op.
#[must_use = "the span ends when the guard is dropped"]
pub struct SpanGuard<'a> {
    lane: Lane<'a>,
    name: &'static str,
    cat: &'static str,
    start: Option<Instant>,
}

impl<'a> SpanGuard<'a> {
    fn open(lane: Lane<'a>, name: &'static str, cat: &'static str) -> Self {
        SpanGuard {
            lane,
            name,
            cat,
            start: lane.is_enabled().then(Instant::now),
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let dur_ns = start.elapsed().as_nanos() as u64;
            self.lane.record(self.name, self.cat, start, dur_ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        {
            let _root = tracer.span("root");
            let _inner = tracer.span("inner");
            let buf = tracer.worker();
            let _w = buf.span("worker");
        }
        assert!(!tracer.is_enabled());
        assert!(tracer.records().is_empty());
    }

    #[test]
    fn spans_nest_and_pair() {
        let tracer = Tracer::new();
        {
            let _root = tracer.span("root");
            let _inner = tracer.span_cat("inner", "test");
        }
        let records = tracer.records();
        assert_eq!(records.len(), 2);
        // Inner drops first, so it is recorded first.
        assert_eq!(records[0].name, "inner");
        assert_eq!(records[0].cat, "test");
        assert_eq!(records[1].name, "root");
        // The root span contains the inner span.
        let (root, inner) = (&records[1], &records[0]);
        assert!(root.start_ns <= inner.start_ns);
        assert!(root.start_ns + root.dur_ns >= inner.start_ns + inner.dur_ns);
        assert_eq!(root.tid, 0);
    }

    #[test]
    fn worker_buffers_get_distinct_tids_and_flush_on_drop() {
        let tracer = Tracer::new();
        let b1 = tracer.worker();
        let b2 = tracer.worker();
        assert_ne!(b1.tid(), b2.tid());
        assert!(b1.tid() >= 1 && b2.tid() >= 1);
        {
            let _s = b1.span("one");
        }
        assert!(
            tracer.records().is_empty(),
            "worker spans stay local until the buffer drops"
        );
        drop(b1);
        drop(b2);
        let records = tracer.records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].name, "one");
        assert!(records[0].tid >= 1);
    }

    #[test]
    fn chrome_export_contains_events_and_thread_names() {
        let tracer = Tracer::new();
        {
            let _root = tracer.span("root");
            let buf = tracer.worker();
            let _w = buf.span("chunk");
        }
        let json = tracer.to_chrome_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"root\""));
        assert!(json.contains("\"name\":\"chunk\""));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("worker-1"));
    }

    #[test]
    fn bounded_tracer_keeps_most_recent_spans() {
        let tracer = Tracer::with_capacity(3);
        for name in ["s1", "s2", "s3", "s4", "s5"] {
            let _s = tracer.span(name);
        }
        let names: Vec<&str> = tracer.records().iter().map(|r| r.name).collect();
        assert_eq!(names, vec!["s3", "s4", "s5"], "oldest spans evicted first");
        assert_eq!(tracer.dropped_spans(), 2);
        // Before the ring fills, nothing is dropped.
        let fresh = Tracer::with_capacity(8);
        {
            let _s = fresh.span("only");
        }
        assert_eq!(fresh.dropped_spans(), 0);
        assert_eq!(fresh.records().len(), 1);
    }

    #[test]
    fn bounded_tracer_applies_to_worker_flushes() {
        let tracer = Tracer::with_capacity(2);
        let buf = tracer.worker();
        for name in ["w1", "w2", "w3"] {
            let _s = buf.span(name);
        }
        drop(buf);
        let names: Vec<&str> = tracer.records().iter().map(|r| r.name).collect();
        assert_eq!(names, vec!["w2", "w3"]);
        assert_eq!(tracer.dropped_spans(), 1);
    }

    #[test]
    fn zero_capacity_drops_everything() {
        let tracer = Tracer::with_capacity(0);
        {
            let _s = tracer.span("gone");
        }
        assert!(tracer.records().is_empty());
        assert_eq!(tracer.dropped_spans(), 1);
    }

    #[test]
    fn chrome_metadata_reports_dropped_spans() {
        let tracer = Tracer::with_capacity(1);
        for name in ["a", "b", "c"] {
            let _s = tracer.span(name);
        }
        let json = tracer.to_chrome_json();
        assert!(json.contains("\"dropped_spans\":2"), "{json}");
        // Unbounded tracers report zero, and the field is always there.
        let unbounded = Tracer::new();
        assert!(unbounded.to_chrome_json().contains("\"dropped_spans\":0"));
        assert_eq!(unbounded.dropped_spans(), 0);
        assert_eq!(Tracer::disabled().dropped_spans(), 0);
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b"), "a\\\"b");
        assert_eq!(escape("a\\b"), "a\\\\b");
        assert_eq!(escape("a\nb"), "a\\u000ab");
    }
}
