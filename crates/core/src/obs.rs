//! Observability: a registry of named counters, gauges, and
//! log-linear-bucket histograms, with Prometheus text exposition and a
//! versioned JSON snapshot export.
//!
//! Where [`telemetry`](crate::telemetry) collects one-shot totals for a
//! single run and [`trace`](crate::trace) records post-hoc span
//! intervals, this module is the *live* surface: a long-running
//! `mine --follow` session (and, eventually, the `procmine serve`
//! daemon) samples distributions and health gauges into a shared
//! [`Registry`] and re-exports them on an interval.
//!
//! The design mirrors [`Tracer`](crate::trace::Tracer):
//!
//! * a [`Registry`] is a cheap clonable handle around
//!   `Option<Arc<…>>` — [`Registry::disabled`] (the
//!   [`MineSession`](crate::MineSession) default) carries `None`, and
//!   every recording path through a disabled registry is a single
//!   branch that **never reads the clock** (durations are measured by
//!   a [`StageClock`](crate::StageClock), which reads the clock only
//!   when one of its views is enabled, and a histogram from a disabled
//!   registry is not one);
//! * recording through an enabled handle is **lock-free**: counters,
//!   gauges, and histogram bucket cells are plain relaxed atomics, so
//!   the parallel kernels' workers can share one registry without a
//!   merge step at the join barrier (the atomic cells *are* the merged
//!   state — addition commutes, exactly like the per-thread
//!   `TraceBuffer` lanes folding into one store);
//! * the only lock is a registration mutex taken when a metric handle
//!   is first acquired (name → cell lookup), never per sample.
//!
//! # Naming and units
//!
//! Families follow Prometheus conventions with a `procmine_` prefix:
//! counters end in `_total`, durations carry an explicit `_ns` unit
//! suffix and are recorded as integer nanoseconds (no float formatting
//! ambiguity in either export). Label sets are fixed per family —
//! `{stage="…"}` for the per-stage latency histogram, `{format="…"}`
//! for the ingest counters.
//!
//! # Histogram buckets
//!
//! Histograms use a fixed log-linear layout: values `0..4` map to four
//! linear buckets, and every power-of-two octave above that is split
//! into four linear sub-buckets ([`SUB_BUCKETS`]), giving ≤ 12.5%
//! relative bucket width over the full `u64` range in
//! [`BUCKET_COUNT`] = 252 cells (~2 KiB of atomics per series). The
//! Prometheus export renders the cumulative `_bucket{le="…"}` form,
//! emitting only non-empty buckets plus the mandatory `+Inf`.
//!
//! # Export
//!
//! [`Registry::render_prometheus`] produces text exposition format
//! (one `# HELP`/`# TYPE` header per family, series sorted by label
//! set); [`Registry::to_json`] produces a snapshot named by
//! [`SNAPSHOT_SCHEMA`] (`procmine-metrics/v1`) whose layout is locked
//! by unit tests like the other JSON reports. Both renderings are
//! deterministic (families and series in sorted order).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::telemetry::Stage;
use crate::trace::escape;

/// Schema identifier written into every JSON snapshot. Bump only with
/// a migration note in DESIGN.md.
pub const SNAPSHOT_SCHEMA: &str = "procmine-metrics/v1";

/// Linear sub-buckets per power-of-two octave.
pub const SUB_BUCKETS: usize = 4;

/// Total histogram bucket cells: 4 linear cells for `0..4`, then 4 per
/// octave for `2^2 ..= 2^63`.
pub const BUCKET_COUNT: usize = SUB_BUCKETS + 62 * SUB_BUCKETS;

/// The bucket index a value lands in (log-linear; see module docs).
fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        return v as usize;
    }
    // v >= 4, so msb >= 2: v lies in the octave [2^msb, 2^(msb+1)),
    // split into 4 linear sub-buckets of width 2^(msb-2).
    let msb = 63 - v.leading_zeros() as usize;
    let sub = ((v >> (msb - 2)) & 0b11) as usize;
    (msb - 1) * SUB_BUCKETS + sub
}

/// The largest value mapping to bucket `i` — the bucket's inclusive
/// upper bound, rendered as the Prometheus `le` label.
fn bucket_upper(i: usize) -> u64 {
    if i < SUB_BUCKETS {
        return i as u64;
    }
    let msb = i / SUB_BUCKETS + 1;
    let sub = (i % SUB_BUCKETS) as u128;
    let upper = (1u128 << msb) + ((sub + 1) << (msb - 2)) - 1;
    upper.min(u64::MAX as u128) as u64
}

/// What a registered family measures; fixed at first registration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MetricKind {
    Counter,
    Gauge,
    Histogram,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// The atomic cells behind one histogram series.
#[derive(Debug)]
struct HistCells {
    buckets: [AtomicU64; BUCKET_COUNT],
    count: AtomicU64,
    sum: AtomicU64,
    /// Smallest observed value; `u64::MAX` until the first sample.
    min: AtomicU64,
    max: AtomicU64,
}

impl HistCells {
    fn new() -> Self {
        HistCells {
            buckets: [const { AtomicU64::new(0) }; BUCKET_COUNT],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    fn observe(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bucket_counts: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            min: match self.min.load(Ordering::Relaxed) {
                u64::MAX => None,
                v => Some(v),
            },
            max: match self.count.load(Ordering::Relaxed) {
                0 => None,
                _ => Some(self.max.load(Ordering::Relaxed)),
            },
        }
    }
}

/// A point-in-time copy of one histogram series, with value-space
/// merge: bucket counts add elementwise, `count`/`sum` add, `min`/`max`
/// take the extremum. Merge is associative and commutative (pinned by
/// unit tests), so per-shard snapshots fold in any order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (not cumulative), `BUCKET_COUNT` long.
    pub bucket_counts: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Smallest observed value (`None` when empty).
    pub min: Option<u64>,
    /// Largest observed value (`None` when empty).
    pub max: Option<u64>,
}

impl HistogramSnapshot {
    /// An empty snapshot (the merge identity).
    pub fn empty() -> Self {
        HistogramSnapshot {
            bucket_counts: vec![0; BUCKET_COUNT],
            count: 0,
            sum: 0,
            min: None,
            max: None,
        }
    }

    /// Folds `other` into `self` (see the type docs for the laws).
    /// Additions saturate, so the laws hold over the whole `u64` range.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (t, o) in self.bucket_counts.iter_mut().zip(&other.bucket_counts) {
            *t = t.saturating_add(*o);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }

    /// Mean observed value, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        match self.count {
            0 => None,
            n => Some(self.sum as f64 / n as f64),
        }
    }
}

/// One registered series: the shared cells a handle records into.
#[derive(Clone, Debug)]
enum SeriesCell {
    Counter(Arc<AtomicU64>),
    /// Gauges store `f64::to_bits` so rates fit alongside integers.
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistCells>),
}

/// A sorted label set — the series key within a family.
type LabelSet = Vec<(&'static str, String)>;

#[derive(Debug)]
struct Family {
    kind: MetricKind,
    help: &'static str,
    /// Sorted label pairs (possibly empty) → cells.
    series: BTreeMap<LabelSet, SeriesCell>,
}

#[derive(Debug, Default)]
struct Shared {
    families: Mutex<BTreeMap<&'static str, Family>>,
}

/// A handle to the metrics registry; clones share the same store.
/// [`Registry::disabled`] is inert: every recording call is one branch,
/// and no clock is ever read (see the module docs for the contract).
#[derive(Clone, Debug, Default)]
pub struct Registry {
    shared: Option<Arc<Shared>>,
}

impl Registry {
    /// An enabled, empty registry.
    pub fn new() -> Registry {
        Registry {
            shared: Some(Arc::new(Shared::default())),
        }
    }

    /// The disabled registry: records nothing, reads no clocks.
    pub fn disabled() -> Registry {
        Registry { shared: None }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Acquires (registering on first use) the cell for one series.
    /// Returns `None` when disabled or when `name` was already
    /// registered as a different kind (the handle is then inert — a
    /// registry never panics on misuse).
    fn cell(
        &self,
        kind: MetricKind,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
    ) -> Option<SeriesCell> {
        let shared = self.shared.as_ref()?;
        let mut families = shared
            .families
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let family = families.entry(name).or_insert_with(|| Family {
            kind,
            help,
            series: BTreeMap::new(),
        });
        if family.kind != kind {
            return None;
        }
        let mut key: LabelSet = labels.iter().map(|&(k, v)| (k, v.to_string())).collect();
        key.sort();
        let cell = family.series.entry(key).or_insert_with(|| match kind {
            MetricKind::Counter => SeriesCell::Counter(Arc::new(AtomicU64::new(0))),
            MetricKind::Gauge => SeriesCell::Gauge(Arc::new(AtomicU64::new(0f64.to_bits()))),
            MetricKind::Histogram => SeriesCell::Histogram(Arc::new(HistCells::new())),
        });
        Some(cell.clone())
    }

    /// A counter handle for `name{labels}`, registered on first use.
    pub fn counter(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
    ) -> Counter {
        Counter {
            cell: match self.cell(MetricKind::Counter, name, help, labels) {
                Some(SeriesCell::Counter(c)) => Some(c),
                _ => None,
            },
        }
    }

    /// A gauge handle for `name{labels}`, registered on first use.
    pub fn gauge(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
    ) -> Gauge {
        Gauge {
            cell: match self.cell(MetricKind::Gauge, name, help, labels) {
                Some(SeriesCell::Gauge(c)) => Some(c),
                _ => None,
            },
        }
    }

    /// A histogram handle for `name{labels}`, registered on first use.
    pub fn histogram(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
    ) -> Histogram {
        Histogram {
            cells: match self.cell(MetricKind::Histogram, name, help, labels) {
                Some(SeriesCell::Histogram(c)) => Some(c),
                _ => None,
            },
        }
    }

    /// The per-stage wall-latency histogram every
    /// [`MineSession`](crate::MineSession) stage samples into.
    pub fn stage_latency(&self, stage: Stage) -> Histogram {
        self.histogram(
            "procmine_stage_latency_ns",
            "Wall-clock latency per pipeline stage invocation, in nanoseconds.",
            &[("stage", stage.name())],
        )
    }

    /// Renders the registry in Prometheus text exposition format.
    /// Returns an empty string when disabled.
    pub fn render_prometheus(&self) -> String {
        let Some(shared) = &self.shared else {
            return String::new();
        };
        let families = shared
            .families
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let mut out = String::new();
        for (name, family) in families.iter() {
            out.push_str(&format!("# HELP {name} {}\n", family.help));
            out.push_str(&format!("# TYPE {name} {}\n", family.kind.as_str()));
            for (labels, cell) in &family.series {
                match cell {
                    SeriesCell::Counter(c) => {
                        let v = c.load(Ordering::Relaxed);
                        out.push_str(&format!("{name}{} {v}\n", braced(labels)));
                    }
                    SeriesCell::Gauge(g) => {
                        let v = f64::from_bits(g.load(Ordering::Relaxed));
                        out.push_str(&format!("{name}{} {}\n", braced(labels), format_f64(v)));
                    }
                    SeriesCell::Histogram(h) => {
                        let snap = h.snapshot();
                        let mut cumulative = 0u64;
                        for (i, &c) in snap.bucket_counts.iter().enumerate() {
                            if c == 0 {
                                continue;
                            }
                            cumulative += c;
                            out.push_str(&format!(
                                "{name}_bucket{} {cumulative}\n",
                                braced_with(labels, "le", &bucket_upper(i).to_string()),
                            ));
                        }
                        out.push_str(&format!(
                            "{name}_bucket{} {}\n",
                            braced_with(labels, "le", "+Inf"),
                            snap.count
                        ));
                        out.push_str(&format!("{name}_sum{} {}\n", braced(labels), snap.sum));
                        out.push_str(&format!("{name}_count{} {}\n", braced(labels), snap.count));
                    }
                }
            }
        }
        out
    }

    /// Renders the versioned JSON snapshot ([`SNAPSHOT_SCHEMA`]).
    /// Deterministic key order; `{"schema":…,"metrics":[]}` when
    /// disabled or empty.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"schema\":\"{SNAPSHOT_SCHEMA}\",\"metrics\":[");
        if let Some(shared) = &self.shared {
            let families = shared
                .families
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            for (fi, (name, family)) in families.iter().enumerate() {
                if fi > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"name\":\"{name}\",\"type\":\"{}\",\"help\":\"{}\",\"series\":[",
                    family.kind.as_str(),
                    escape(family.help)
                ));
                for (si, (labels, cell)) in family.series.iter().enumerate() {
                    if si > 0 {
                        out.push(',');
                    }
                    out.push_str("{\"labels\":{");
                    out.push_str(&labels_json(labels));
                    out.push_str("},");
                    match cell {
                        SeriesCell::Counter(c) => {
                            out.push_str(&format!("\"value\":{}", c.load(Ordering::Relaxed)));
                        }
                        SeriesCell::Gauge(g) => {
                            let v = f64::from_bits(g.load(Ordering::Relaxed));
                            out.push_str(&format!("\"value\":{}", format_f64(v)));
                        }
                        SeriesCell::Histogram(h) => {
                            let snap = h.snapshot();
                            out.push_str(&format!(
                                "\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
                                snap.count,
                                snap.sum,
                                snap.min.map_or("null".into(), |v| v.to_string()),
                                snap.max.map_or("null".into(), |v| v.to_string()),
                            ));
                            let mut first = true;
                            for (i, &c) in snap.bucket_counts.iter().enumerate() {
                                if c == 0 {
                                    continue;
                                }
                                if !first {
                                    out.push(',');
                                }
                                first = false;
                                out.push_str(&format!(
                                    "{{\"le\":{},\"count\":{c}}}",
                                    bucket_upper(i)
                                ));
                            }
                            out.push(']');
                        }
                    }
                    out.push('}');
                }
                out.push_str("]}");
            }
        }
        out.push_str("]}");
        out
    }
}

/// Renders a label set as Prometheus `{k="v",…}` (empty set → nothing).
fn braced(labels: &LabelSet) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    format!("{{{}}}", parts.join(","))
}

/// Like [`braced`], with one extra label appended (the histogram `le`).
fn braced_with(labels: &LabelSet, key: &str, value: &str) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    parts.push(format!("{key}=\"{value}\""));
    format!("{{{}}}", parts.join(","))
}

/// Renders a label set as JSON object fields (no surrounding braces).
fn labels_json(labels: &LabelSet) -> String {
    labels
        .iter()
        .map(|(k, v)| format!("\"{}\":\"{}\"", escape(k), escape(v)))
        .collect::<Vec<_>>()
        .join(",")
}

/// Escapes a Prometheus label value (backslash, quote, newline) — the
/// same set JSON needs, with JSON-compatible spellings.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for ch in v.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Formats a gauge value: finite floats in shortest form, non-finite
/// clamped to 0 (neither export format can carry NaN portably).
fn format_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A monotonically increasing counter. Cheap to clone; thread-safe;
/// inert when acquired from a disabled registry.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.cell {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 when inert).
    pub fn value(&self) -> u64 {
        self.cell.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A gauge holding one `f64` (integers round-trip exactly up to 2⁵³).
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    cell: Option<Arc<AtomicU64>>,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        if let Some(cell) = &self.cell {
            cell.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Sets the gauge from an integer.
    pub fn set_u64(&self, v: u64) {
        self.set(v as f64);
    }

    /// Current value (0 when inert).
    pub fn value(&self) -> f64 {
        self.cell
            .as_ref()
            .map_or(0.0, |c| f64::from_bits(c.load(Ordering::Relaxed)))
    }
}

/// A log-linear-bucket histogram of `u64` observations (durations in
/// nanoseconds, by convention — see the module docs).
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    cells: Option<Arc<HistCells>>,
}

impl Histogram {
    /// Whether observations land anywhere.
    pub fn is_enabled(&self) -> bool {
        self.cells.is_some()
    }

    /// Records one observation.
    pub fn observe(&self, v: u64) {
        if let Some(cells) = &self.cells {
            cells.observe(v);
        }
    }

    /// A point-in-time copy ([`HistogramSnapshot::empty`] when inert).
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.cells
            .as_ref()
            .map_or_else(HistogramSnapshot::empty, |c| c.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_in_range() {
        let mut last = 0usize;
        for v in 0u64..4096 {
            let i = bucket_index(v);
            assert!(i >= last, "index regressed at {v}");
            assert!(i < BUCKET_COUNT);
            last = i;
        }
        assert_eq!(bucket_index(u64::MAX), BUCKET_COUNT - 1);
    }

    #[test]
    fn bucket_bounds_partition_the_value_space() {
        // Every value maps into the bucket whose [lower, upper] range
        // contains it: upper(i-1) < v <= upper(i).
        for v in [0, 1, 3, 4, 5, 7, 8, 100, 1023, 1024, 1 << 40, u64::MAX] {
            let i = bucket_index(v);
            assert!(v <= bucket_upper(i), "v={v} above its bucket");
            if i > 0 {
                assert!(v > bucket_upper(i - 1), "v={v} below its bucket");
            }
        }
        assert_eq!(bucket_upper(BUCKET_COUNT - 1), u64::MAX);
    }

    #[test]
    fn relative_bucket_width_is_bounded() {
        // Log-linear with 4 sub-buckets: width / lower_bound <= 1/4
        // once past the linear range.
        for i in SUB_BUCKETS..BUCKET_COUNT - 1 {
            let lo = bucket_upper(i - 1) as f64 + 1.0;
            let width = bucket_upper(i) as f64 - bucket_upper(i - 1) as f64;
            assert!(width / lo <= 0.26, "bucket {i} too wide: {width}/{lo}");
        }
    }

    fn snap_of(values: &[u64]) -> HistogramSnapshot {
        let reg = Registry::new();
        let h = reg.histogram("h_test", "test", &[]);
        for &v in values {
            h.observe(v);
        }
        h.snapshot()
    }

    #[test]
    fn merge_is_commutative() {
        let (a, b) = (snap_of(&[1, 5, 900]), snap_of(&[0, 7, 7, 1 << 30]));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
    }

    #[test]
    fn merge_is_associative() {
        let (a, b, c) = (snap_of(&[3]), snap_of(&[10, 20]), snap_of(&[u64::MAX, 0]));
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right);
    }

    #[test]
    fn merge_identity_is_empty() {
        let a = snap_of(&[2, 4, 8]);
        let mut merged = a.clone();
        merged.merge(&HistogramSnapshot::empty());
        assert_eq!(merged, a);
        let mut from_empty = HistogramSnapshot::empty();
        from_empty.merge(&a);
        assert_eq!(from_empty, a);
    }

    #[test]
    fn merge_equals_single_store() {
        // Observing everything into one histogram equals merging two
        // halves — the atomic-cells-as-merged-state claim.
        let whole = snap_of(&[1, 2, 3, 4, 5, 6]);
        let mut halves = snap_of(&[1, 3, 5]);
        halves.merge(&snap_of(&[2, 4, 6]));
        assert_eq!(whole, halves);
        assert_eq!(halves.count, 6);
        assert_eq!(halves.sum, 21);
        assert_eq!(halves.min, Some(1));
        assert_eq!(halves.max, Some(6));
        assert_eq!(halves.mean(), Some(3.5));
    }

    #[test]
    fn disabled_registry_is_inert_and_clock_free() {
        let reg = Registry::disabled();
        assert!(!reg.is_enabled());
        let c = reg.counter("c_total", "h", &[]);
        c.inc();
        assert_eq!(c.value(), 0);
        let g = reg.gauge("g", "h", &[]);
        g.set(3.5);
        assert_eq!(g.value(), 0.0);
        let h = reg.histogram("h_ns", "h", &[]);
        h.observe(7);
        assert!(
            !h.is_enabled(),
            "inert, so a StageClock sampling it reads no clock"
        );
        assert_eq!(h.snapshot().count, 0);
        assert_eq!(reg.render_prometheus(), "");
        assert_eq!(
            reg.to_json(),
            format!("{{\"schema\":\"{SNAPSHOT_SCHEMA}\",\"metrics\":[]}}")
        );
    }

    #[test]
    fn clones_share_the_store() {
        let reg = Registry::new();
        reg.counter("c_total", "h", &[]).add(2);
        let clone = reg.clone();
        clone.counter("c_total", "h", &[]).add(3);
        assert_eq!(reg.counter("c_total", "h", &[]).value(), 5);
    }

    #[test]
    fn labeled_series_are_distinct() {
        let reg = Registry::new();
        reg.counter("c_total", "h", &[("stage", "prune")]).inc();
        reg.counter("c_total", "h", &[("stage", "reduce")]).add(4);
        assert_eq!(
            reg.counter("c_total", "h", &[("stage", "prune")]).value(),
            1
        );
        assert_eq!(
            reg.counter("c_total", "h", &[("stage", "reduce")]).value(),
            4
        );
    }

    #[test]
    fn kind_mismatch_yields_inert_handles_not_panics() {
        let reg = Registry::new();
        reg.counter("name", "h", &[]).inc();
        let g = reg.gauge("name", "h", &[]);
        g.set(9.0);
        assert_eq!(g.value(), 0.0, "mismatched re-registration is inert");
        assert_eq!(reg.counter("name", "h", &[]).value(), 1);
    }

    #[test]
    fn prometheus_exposition_shape() {
        let reg = Registry::new();
        reg.counter("procmine_b_total", "Counts b.", &[("format", "xes")])
            .add(2);
        reg.gauge("procmine_g", "A gauge.", &[]).set(1.5);
        let h = reg.histogram("procmine_h_ns", "A histogram.", &[("stage", "prune")]);
        h.observe(3);
        h.observe(5);
        let text = reg.render_prometheus();
        let expected = "\
# HELP procmine_b_total Counts b.
# TYPE procmine_b_total counter
procmine_b_total{format=\"xes\"} 2
# HELP procmine_g A gauge.
# TYPE procmine_g gauge
procmine_g 1.5
# HELP procmine_h_ns A histogram.
# TYPE procmine_h_ns histogram
procmine_h_ns_bucket{stage=\"prune\",le=\"3\"} 1
procmine_h_ns_bucket{stage=\"prune\",le=\"5\"} 2
procmine_h_ns_bucket{stage=\"prune\",le=\"+Inf\"} 2
procmine_h_ns_sum{stage=\"prune\"} 8
procmine_h_ns_count{stage=\"prune\"} 2
";
        assert_eq!(text, expected);
    }

    #[test]
    fn json_snapshot_schema_is_locked() {
        let reg = Registry::new();
        reg.counter("procmine_b_total", "Counts b.", &[("format", "xes")])
            .add(2);
        let h = reg.histogram("procmine_h_ns", "A histogram.", &[]);
        h.observe(3);
        assert_eq!(
            reg.to_json(),
            "{\"schema\":\"procmine-metrics/v1\",\"metrics\":[\
             {\"name\":\"procmine_b_total\",\"type\":\"counter\",\"help\":\"Counts b.\",\
             \"series\":[{\"labels\":{\"format\":\"xes\"},\"value\":2}]},\
             {\"name\":\"procmine_h_ns\",\"type\":\"histogram\",\"help\":\"A histogram.\",\
             \"series\":[{\"labels\":{},\"count\":1,\"sum\":3,\"min\":3,\"max\":3,\
             \"buckets\":[{\"le\":3,\"count\":1}]}]}]}"
        );
    }

    #[test]
    fn json_snapshot_parses_as_json() {
        let reg = Registry::new();
        reg.gauge("g", "A \"quoted\" gauge\\name.", &[("k", "va\"lue")])
            .set(2.0);
        reg.stage_latency(Stage::Prune).observe(100);
        let parsed: serde_json::Value = serde_json::from_str(&reg.to_json()).unwrap();
        match parsed.get("schema") {
            Some(serde_json::Value::Str(s)) => assert_eq!(s, SNAPSHOT_SCHEMA),
            other => panic!("expected schema string, got {other:?}"),
        }
        assert!(parsed.get("metrics").is_some());
    }

    #[test]
    fn timer_idiom_records_elapsed_nanos() {
        let reg = Registry::new();
        let h = reg.stage_latency(Stage::CountPairs);
        let clock =
            crate::StageClock::start(crate::Lane::Off, "count_pairs", "miner", h.clone(), false);
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert!(clock.stop().is_some());
        let snap = h.snapshot();
        assert_eq!(snap.count, 1);
        assert!(snap.sum >= 1_000_000, "expected >= 1ms, got {}ns", snap.sum);
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let reg = Registry::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let reg = reg.clone();
                scope.spawn(move || {
                    let c = reg.counter("c_total", "h", &[]);
                    let h = reg.histogram("h_ns", "h", &[]);
                    for v in 0..1000u64 {
                        c.inc();
                        h.observe(v);
                    }
                });
            }
        });
        assert_eq!(reg.counter("c_total", "h", &[]).value(), 4000);
        assert_eq!(reg.histogram("h_ns", "h", &[]).snapshot().count, 4000);
    }
}
