//! Pipeline telemetry: monotonic stage timers and counters for the
//! miners and the conformance checker, behind a sink trait that is
//! zero-cost when disabled.
//!
//! Every miner has a `*_in` form running inside a
//! [`MineSession`](crate::MineSession), whose [`MetricsSink`] receives
//! the measurements. The plain entry points use a default session
//! carrying [`NullSink`], whose `ENABLED = false` constant lets the
//! instrumentation monomorphize away entirely — the hot loops compile
//! to the same code as before the telemetry layer existed. A session
//! built `with_sink(&mut MinerMetrics)` collects:
//!
//! * nanoseconds per pipeline [`Stage`], summed across workers in the
//!   parallel miner;
//! * wall-clock nanoseconds per stage, recorded at the parallel miner's
//!   fan-out/join barriers — the ratio of the two per stage is the
//!   stage's parallel efficiency;
//! * the counters of [`MinerMetrics`] — executions scanned, pairs
//!   counted, edge populations before/after the noise threshold,
//!   two-cycles dissolved, nontrivial SCCs dissolved, edges dropped by
//!   the per-execution transitive reduction, and final edge count.
//!
//! Every stage timer is read from a [`StageClock`](crate::StageClock),
//! the same interval the stage's trace span and registry histogram
//! record, so `--stats`, `--trace` and `--metrics` agree exactly.
//!
//! The sink trait is generic over the metrics type it carries:
//! `MetricsSink<MinerMetrics>` (the default) feeds the miners,
//! [`MetricsSink<ConformanceMetrics>`] feeds
//! [`conformance`](crate::conformance), and the classify crate supplies
//! its own metrics type against the same trait. [`NullSink`] disables
//! all of them.
//!
//! Every metrics type implements [`Counters`]: it lists its cells once,
//! as `(section, name, merge rule, value)`, and merging, the JSON report
//! ([`Counters::to_json`], with a stable key order locked by a unit test
//! per type, so downstream golden tests can depend on it) and the
//! human-readable table ([`Counters::render_table`]) are built from that
//! list. Codec-level byte/event counts live in
//! `procmine_log::codec::CodecStats` (the log crate cannot depend on
//! this one); the CLI merges both into one report.

use std::fmt;

/// The pipeline stages timed by the session-based miners.
///
/// Not every algorithm exercises every stage: Algorithm 1 has no
/// separate lowering pass (it lowers while counting) and no marking
/// pass (its step 4 is a global transitive reduction, timed as
/// [`Stage::Reduce`]). Untouched stages report zero.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Lowering the log to dense vertex ids (instance labeling, for the
    /// cyclic miner).
    Lower,
    /// Step 2: scanning executions and counting ordered/overlapping
    /// pairs.
    CountPairs,
    /// Step 3: noise thresholding and two-cycle removal.
    Prune,
    /// Step 4: dissolving strongly connected components (general and
    /// cyclic miners only; Algorithm 1 never forms cycles).
    SccRemoval,
    /// Transitive reduction: the per-execution marking pass of steps
    /// 5–6 (Algorithms 2–3) or the global reduction of Algorithm 1.
    Reduce,
    /// Final assembly of the named model graph and its edge support.
    Assemble,
}

impl Stage {
    /// Number of stages (size of the timer array).
    pub const COUNT: usize = 6;

    /// All stages, in reporting order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::Lower,
        Stage::CountPairs,
        Stage::Prune,
        Stage::SccRemoval,
        Stage::Reduce,
        Stage::Assemble,
    ];

    /// Stable machine-readable name, used as the JSON key.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Lower => "lower",
            Stage::CountPairs => "count_pairs",
            Stage::Prune => "prune",
            Stage::SccRemoval => "scc_removal",
            Stage::Reduce => "reduce",
            Stage::Assemble => "assemble",
        }
    }

    /// The trace-span name for this stage (see [`crate::trace`]). This
    /// differs from [`name`](Self::name) only for [`Stage::Reduce`],
    /// whose span has always been called `transitive_reduction` while
    /// its JSON key stays `reduce`.
    pub fn span_name(self) -> &'static str {
        match self {
            Stage::Reduce => "transitive_reduction",
            other => other.name(),
        }
    }
}

/// Counters and stage timings collected by one mining run.
///
/// Counters accumulate: reusing one `MinerMetrics` across several runs
/// (as the CLI's streaming mode does per snapshot) sums them, and
/// [`merge`](Self::merge) folds per-thread metrics together the same
/// way.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MinerMetrics {
    /// CPU nanoseconds per stage, indexed by `Stage as usize` (summed
    /// across threads in the parallel miner).
    stage_nanos: [u64; Stage::COUNT],
    /// Wall-clock nanoseconds per stage, recorded at the parallel
    /// miner's fan-out/join barriers. Zero for stages no barrier timed.
    wall_nanos: [u64; Stage::COUNT],
    /// Executions scanned by the step-2 counting pass.
    pub executions_scanned: u64,
    /// Pair observations recorded in step 2 (`k·(k−1)/2` per execution
    /// of length `k` — each unordered instance pair is inspected once).
    pub pairs_counted: u64,
    /// Ordered pairs with at least one observation, before the noise
    /// threshold is applied.
    pub edges_before_threshold: u64,
    /// Edges surviving the threshold (step 3, before two-cycle
    /// removal).
    pub edges_after_threshold: u64,
    /// Mutual edge pairs dissolved as two-cycles (each pair counts
    /// once).
    pub two_cycles_dissolved: u64,
    /// Nontrivial strongly connected components dissolved in step 4.
    pub scc_count: u64,
    /// Edges dropped because no execution's transitive reduction needed
    /// them (step 6), or by Algorithm 1's global reduction.
    pub edges_dropped_by_reduction: u64,
    /// Edges in the final mined graph (vertex-level, before the cyclic
    /// miner's instance merge).
    pub edges_final: u64,
    /// Bytes handed out by the marking pass's scratch arenas (cumulative
    /// across executions and threads; see `procmine_graph::arena`).
    pub arena_bytes: u64,
    /// Scratch-arena recycle events (one per marked execution).
    pub arena_resets: u64,
    /// Largest per-arena resident scratch footprint, in bytes (max
    /// across threads, not summed — it bounds one worker's memory).
    pub arena_high_water_bytes: u64,
}

impl MinerMetrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        MinerMetrics::default()
    }

    /// Adds `nanos` to a stage timer.
    pub fn add_stage_nanos(&mut self, stage: Stage, nanos: u64) {
        self.stage_nanos[stage as usize] += nanos;
    }

    /// CPU nanoseconds accumulated for a stage.
    pub fn stage_nanos(&self, stage: Stage) -> u64 {
        self.stage_nanos[stage as usize]
    }

    /// Adds `nanos` to a stage's wall-clock (barrier) timer.
    pub fn add_wall_nanos(&mut self, stage: Stage, nanos: u64) {
        self.wall_nanos[stage as usize] += nanos;
    }

    /// Wall-clock nanoseconds accumulated for a stage (zero if no
    /// barrier timer ran for it).
    pub fn wall_nanos(&self, stage: Stage) -> u64 {
        self.wall_nanos[stage as usize]
    }

    /// The CPU stage timers as `(name, nanos)` pairs in reporting order.
    pub fn stages(&self) -> [(&'static str, u64); Stage::COUNT] {
        Stage::ALL.map(|s| (s.name(), self.stage_nanos(s)))
    }

    /// The wall-clock stage timers as `(name, nanos)` pairs in
    /// reporting order.
    pub fn stages_wall(&self) -> [(&'static str, u64); Stage::COUNT] {
        Stage::ALL.map(|s| (s.name(), self.wall_nanos(s)))
    }
}

impl Counters for MinerMetrics {
    const NAME: &'static str = "miner";

    // A table, one line per cell, so rustfmt is told to keep out.
    #[rustfmt::skip]
    fn cells_mut(&mut self) -> Vec<Cell<&mut u64>> {
        use Merge::{Max, Sum};
        let c = "counters";
        let mut cells = vec![
            (c, "executions_scanned", Sum, &mut self.executions_scanned),
            (c, "pairs_counted", Sum, &mut self.pairs_counted),
            (c, "edges_before_threshold", Sum, &mut self.edges_before_threshold),
            (c, "edges_after_threshold", Sum, &mut self.edges_after_threshold),
            (c, "two_cycles_dissolved", Sum, &mut self.two_cycles_dissolved),
            (c, "scc_count", Sum, &mut self.scc_count),
            (c, "edges_dropped_by_reduction", Sum, &mut self.edges_dropped_by_reduction),
            (c, "edges_final", Sum, &mut self.edges_final),
        ];
        for (section, timers) in [
            ("stages_ns", &mut self.stage_nanos),
            ("stages_wall_ns", &mut self.wall_nanos),
        ] {
            cells.extend(Stage::ALL.iter().zip(timers).map(|(s, v)| (section, s.name(), Sum, v)));
        }
        cells.extend([
            ("arena", "bytes", Sum, &mut self.arena_bytes),
            ("arena", "resets", Sum, &mut self.arena_resets),
            ("arena", "high_water_bytes", Max, &mut self.arena_high_water_bytes),
        ]);
        cells
    }

    /// Stages (CPU time, wall time, parallel efficiency), then the
    /// counters. The wall and efficiency columns show `-` for stages no
    /// barrier timer measured (serial stages).
    fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str("stage                         cpu         wall        cpu/wall\n");
        for ((name, cpu), (_, wall)) in self.stages().iter().zip(self.stages_wall()) {
            let (wall_col, eff_col) = if wall > 0 {
                (
                    format_nanos(wall),
                    format!("{:.2}x", *cpu as f64 / wall as f64),
                )
            } else {
                ("-".to_string(), "-".to_string())
            };
            out.push_str(&format!(
                "  {name:<26}  {:<10}  {wall_col:<10}  {eff_col}\n",
                format_nanos(*cpu)
            ));
        }
        out.push_str(&self.render_section("counters", "counter"));
        out
    }
}

impl fmt::Display for MinerMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render_table())
    }
}

/// How one cell of two records combines when they [merge](Counters::merge).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Merge {
    /// The values add: counters and timers.
    Sum,
    /// The larger value wins: depths and high-water marks.
    Max,
}

/// One reported value of a metrics record: `(section, name, merge rule,
/// value)`. The section is the JSON object the value sits in, the name
/// its key there. [`Counters::cells_mut`] hands out the value as
/// `&mut u64`; [`Counters::cells`] copies it out.
pub type Cell<V = u64> = (&'static str, &'static str, Merge, V);

/// A metrics record that declares its cells once.
///
/// The one required method lists every cell in reporting order; merging,
/// the JSON report and the human-readable table are all built from that
/// list, so a new counter is one line in its type's [`cells_mut`] and
/// shows up everywhere at once. Cells of one section must be listed
/// together. Sections ending in `_ns` hold nanosecond timers, rendered
/// as durations in the table.
///
/// [`cells_mut`]: Counters::cells_mut
pub trait Counters: Clone {
    /// The record's name: the key it nests under in a report that
    /// carries several records, and the prefix of its table headers.
    const NAME: &'static str;

    /// Every cell in reporting order, each with a handle on its field.
    fn cells_mut(&mut self) -> Vec<Cell<&mut u64>>;

    /// Every cell in reporting order, with its current value.
    fn cells(&self) -> Vec<Cell> {
        let mut copy = self.clone();
        let cells = copy.cells_mut();
        cells
            .into_iter()
            .map(|(s, n, m, v)| (s, n, m, *v))
            .collect()
    }

    /// One section's cells as `(name, value)` pairs in reporting order.
    fn section(&self, section: &str) -> Vec<(&'static str, u64)> {
        let cells = self.cells().into_iter();
        cells
            .filter(|c| c.0 == section)
            .map(|(_, n, _, v)| (n, v))
            .collect()
    }

    /// The `"counters"` section as `(name, value)` pairs.
    fn counters(&self) -> Vec<(&'static str, u64)> {
        self.section("counters")
    }

    /// Folds another record into this one, cell by cell under each
    /// cell's [`Merge`] rule. Used to merge per-thread metrics at the
    /// parallel miner's join barriers.
    fn merge(&mut self, other: &Self) {
        let theirs = other.cells();
        for ((.., merge, mine), (.., value)) in self.cells_mut().into_iter().zip(theirs) {
            *mine = match merge {
                Merge::Sum => *mine + value,
                Merge::Max => (*mine).max(value),
            };
        }
    }

    /// Writes the JSON fields `"section":{"name":value,…},…` (no
    /// surrounding braces), one object per section in reporting order,
    /// so callers can splice sibling fields around them.
    fn write_json_fields(&self, out: &mut String) {
        let mut open: Option<&str> = None;
        for (section, name, _, value) in self.cells() {
            if open == Some(section) {
                out.push(',');
            } else {
                if open.is_some() {
                    out.push_str("},");
                }
                out.push_str(&format!("\"{section}\":{{"));
                open = Some(section);
            }
            out.push_str(&format!("\"{name}\":{value}"));
        }
        if open.is_some() {
            out.push('}');
        }
    }

    /// Machine-readable JSON report with a stable key order (suitable
    /// for golden tests, modulo the timing values).
    fn to_json(&self) -> String {
        let mut out = String::from("{");
        self.write_json_fields(&mut out);
        out.push('}');
        out
    }

    /// One section as a two-column table under `title`: timers as
    /// durations, everything else as plain values.
    fn render_section(&self, section: &str, title: &str) -> String {
        let timers = section.ends_with("_ns");
        let mut out = format!("{title:<30}{}\n", if timers { "time" } else { "value" });
        for (name, value) in self.section(section) {
            let value = if timers {
                format_nanos(value)
            } else {
                value.to_string()
            };
            out.push_str(&format!("  {name:<26}  {value}\n"));
        }
        out
    }

    /// Human-readable table: the `timers_ns` section, then the
    /// `counters` section, headed by the record's [`NAME`](Self::NAME).
    fn render_table(&self) -> String {
        let name = Self::NAME;
        let mut out = self.render_section("timers_ns", &format!("{name} timer"));
        out.push_str(&self.render_section("counters", &format!("{name} counter")));
        out
    }
}

/// A duration for a human reader: ns, µs, ms or s, whichever keeps the
/// number short.
pub fn format_nanos(nanos: u64) -> String {
    let ns = nanos as f64;
    if ns < 1_000.0 {
        format!("{ns:.0} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.1} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.1} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// A destination for pipeline telemetry carrying metrics of type `M`
/// (defaulting to [`MinerMetrics`], so miner code writes plain
/// `S: MetricsSink` bounds).
///
/// The session-based entry points are generic over this trait and
/// guard every measurement behind `Self::ENABLED`, a compile-time
/// constant: with [`NullSink`] the guards are `if false` and the
/// instrumentation vanishes at monomorphization, so the plain entry
/// points pay nothing.
pub trait MetricsSink<M = MinerMetrics> {
    /// Whether this sink records anything. Instrumentation code checks
    /// this constant before doing measurement work.
    const ENABLED: bool;

    /// Applies `update` to the underlying metrics; a no-op when
    /// disabled.
    fn record(&mut self, update: impl FnOnce(&mut M));
}

/// The disabled sink: records nothing, costs nothing — for any metrics
/// type.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl<M> MetricsSink<M> for NullSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record(&mut self, _update: impl FnOnce(&mut M)) {}
}

/// A mutable reference to a sink is itself a sink, so a
/// [`MineSession`](crate::MineSession) can borrow caller-owned metrics
/// (`session.with_sink(&mut metrics)`) without taking ownership.
impl<M, S: MetricsSink<M>> MetricsSink<M> for &mut S {
    const ENABLED: bool = S::ENABLED;

    #[inline(always)]
    fn record(&mut self, update: impl FnOnce(&mut M)) {
        (**self).record(update);
    }
}

impl MetricsSink for MinerMetrics {
    const ENABLED: bool = true;

    fn record(&mut self, update: impl FnOnce(&mut MinerMetrics)) {
        update(self);
    }
}

/// Counters and timers collected by one conformance-checking run (see
/// [`crate::conformance`]): executions checked, violations by variant,
/// and the Definition-7 closure/SCC analysis times. Fields accumulate,
/// like [`MinerMetrics`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ConformanceMetrics {
    /// Executions checked against Definition 6.
    pub executions_checked: u64,
    /// Executions with no violations.
    pub consistent_executions: u64,
    /// Count of `Violation::UnknownActivity`.
    pub violations_unknown_activity: u64,
    /// Count of `Violation::NotConnected`.
    pub violations_not_connected: u64,
    /// Count of `Violation::WrongInitiating`.
    pub violations_wrong_initiating: u64,
    /// Count of `Violation::WrongTerminating`.
    pub violations_wrong_terminating: u64,
    /// Count of `Violation::Unreachable`.
    pub violations_unreachable: u64,
    /// Count of `Violation::DependencyViolated`.
    pub violations_dependency: u64,
    /// Missing dependencies found (dependency completeness failures).
    pub missing_dependencies: u64,
    /// Spurious dependencies found (irredundancy failures).
    pub spurious_dependencies: u64,
    /// Log activities with no same-named model node.
    pub unknown_activities: u64,
    /// Nanoseconds computing the model's transitive closure.
    pub closure_nanos: u64,
    /// Nanoseconds computing the model's strongly connected components.
    pub scc_nanos: u64,
    /// Nanoseconds spent in per-execution Definition-6 checks.
    pub check_nanos: u64,
}

impl ConformanceMetrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        ConformanceMetrics::default()
    }
}

impl Counters for ConformanceMetrics {
    const NAME: &'static str = "conformance";

    // A table, one line per cell, so rustfmt is told to keep out.
    #[rustfmt::skip]
    fn cells_mut(&mut self) -> Vec<Cell<&mut u64>> {
        use Merge::Sum;
        let (c, t) = ("counters", "timers_ns");
        vec![
            (c, "executions_checked", Sum, &mut self.executions_checked),
            (c, "consistent_executions", Sum, &mut self.consistent_executions),
            (c, "violations_unknown_activity", Sum, &mut self.violations_unknown_activity),
            (c, "violations_not_connected", Sum, &mut self.violations_not_connected),
            (c, "violations_wrong_initiating", Sum, &mut self.violations_wrong_initiating),
            (c, "violations_wrong_terminating", Sum, &mut self.violations_wrong_terminating),
            (c, "violations_unreachable", Sum, &mut self.violations_unreachable),
            (c, "violations_dependency", Sum, &mut self.violations_dependency),
            (c, "missing_dependencies", Sum, &mut self.missing_dependencies),
            (c, "spurious_dependencies", Sum, &mut self.spurious_dependencies),
            (c, "unknown_activities", Sum, &mut self.unknown_activities),
            (t, "closure", Sum, &mut self.closure_nanos),
            (t, "scc", Sum, &mut self.scc_nanos),
            (t, "execution_checks", Sum, &mut self.check_nanos),
        ]
    }
}

impl fmt::Display for ConformanceMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render_table())
    }
}

impl MetricsSink<ConformanceMetrics> for ConformanceMetrics {
    const ENABLED: bool = true;

    fn record(&mut self, update: impl FnOnce(&mut ConformanceMetrics)) {
        update(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MinerMetrics {
        let mut m = MinerMetrics::new();
        m.add_stage_nanos(Stage::Lower, 10);
        m.add_stage_nanos(Stage::CountPairs, 20);
        m.add_stage_nanos(Stage::Prune, 30);
        m.add_stage_nanos(Stage::SccRemoval, 35);
        m.add_stage_nanos(Stage::Reduce, 40);
        m.add_stage_nanos(Stage::Assemble, 50);
        m.add_wall_nanos(Stage::CountPairs, 11);
        m.add_wall_nanos(Stage::Reduce, 12);
        m.executions_scanned = 1;
        m.pairs_counted = 2;
        m.edges_before_threshold = 3;
        m.edges_after_threshold = 4;
        m.two_cycles_dissolved = 5;
        m.scc_count = 6;
        m.edges_dropped_by_reduction = 7;
        m.edges_final = 8;
        m.arena_bytes = 64;
        m.arena_resets = 2;
        m.arena_high_water_bytes = 32;
        m
    }

    #[test]
    fn json_schema_is_locked() {
        // This string is the contract for downstream golden tests: key
        // order and spelling must not change without a migration.
        assert_eq!(
            sample().to_json(),
            "{\"counters\":{\
             \"executions_scanned\":1,\
             \"pairs_counted\":2,\
             \"edges_before_threshold\":3,\
             \"edges_after_threshold\":4,\
             \"two_cycles_dissolved\":5,\
             \"scc_count\":6,\
             \"edges_dropped_by_reduction\":7,\
             \"edges_final\":8},\
             \"stages_ns\":{\
             \"lower\":10,\
             \"count_pairs\":20,\
             \"prune\":30,\
             \"scc_removal\":35,\
             \"reduce\":40,\
             \"assemble\":50},\
             \"stages_wall_ns\":{\
             \"lower\":0,\
             \"count_pairs\":11,\
             \"prune\":0,\
             \"scc_removal\":0,\
             \"reduce\":12,\
             \"assemble\":0},\
             \"arena\":{\
             \"bytes\":64,\
             \"resets\":2,\
             \"high_water_bytes\":32}}"
        );
    }

    #[test]
    fn conformance_json_schema_is_locked() {
        let mut m = ConformanceMetrics::new();
        m.executions_checked = 1;
        m.consistent_executions = 2;
        m.violations_unknown_activity = 3;
        m.violations_not_connected = 4;
        m.violations_wrong_initiating = 5;
        m.violations_wrong_terminating = 6;
        m.violations_unreachable = 7;
        m.violations_dependency = 8;
        m.missing_dependencies = 9;
        m.spurious_dependencies = 10;
        m.unknown_activities = 11;
        m.closure_nanos = 12;
        m.scc_nanos = 13;
        m.check_nanos = 14;
        assert_eq!(
            m.to_json(),
            "{\"counters\":{\
             \"executions_checked\":1,\
             \"consistent_executions\":2,\
             \"violations_unknown_activity\":3,\
             \"violations_not_connected\":4,\
             \"violations_wrong_initiating\":5,\
             \"violations_wrong_terminating\":6,\
             \"violations_unreachable\":7,\
             \"violations_dependency\":8,\
             \"missing_dependencies\":9,\
             \"spurious_dependencies\":10,\
             \"unknown_activities\":11},\
             \"timers_ns\":{\
             \"closure\":12,\
             \"scc\":13,\
             \"execution_checks\":14}}"
        );
        let mut twice = m.clone();
        twice.merge(&m);
        assert_eq!(twice.executions_checked, 2);
        assert_eq!(twice.unknown_activities, 22);
        assert_eq!(twice.check_nanos, 28);
        let table = m.render_table();
        for (name, _) in m.counters() {
            assert!(table.contains(name), "missing counter {name}");
        }
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = sample();
        a.merge(&sample());
        assert_eq!(a.stage_nanos(Stage::Lower), 20);
        assert_eq!(a.stage_nanos(Stage::Assemble), 100);
        assert_eq!(a.wall_nanos(Stage::CountPairs), 22);
        assert_eq!(a.wall_nanos(Stage::Reduce), 24);
        assert_eq!(a.executions_scanned, 2);
        assert_eq!(a.edges_final, 16);
    }

    #[test]
    fn default_is_all_zero() {
        let m = MinerMetrics::default();
        assert!(m.counters().iter().all(|&(_, v)| v == 0));
        assert!(m.stages().iter().all(|&(_, v)| v == 0));
        assert!(m.stages_wall().iter().all(|&(_, v)| v == 0));
    }

    // The disabled path is a compile-time property.
    const _: () = assert!(!<NullSink as MetricsSink>::ENABLED);
    const _: () = assert!(MinerMetrics::ENABLED);
    const _: () = assert!(<ConformanceMetrics as MetricsSink<ConformanceMetrics>>::ENABLED);

    #[test]
    fn null_sink_records_nothing() {
        let mut sink = NullSink;
        sink.record(|m: &mut MinerMetrics| m.edges_final += 1);
        sink.record(|m: &mut ConformanceMetrics| m.executions_checked += 1);
    }

    #[test]
    fn metrics_sink_records() {
        let mut m = MinerMetrics::new();
        m.record(|m| m.edges_final += 3);
        assert_eq!(m.edges_final, 3);
        m.record(|m| m.add_stage_nanos(Stage::Prune, 5));
        assert_eq!(m.stage_nanos(Stage::Prune), 5);
    }

    #[test]
    fn table_lists_all_keys() {
        let table = sample().render_table();
        for (name, _) in sample().counters() {
            assert!(table.contains(name), "missing counter {name}");
        }
        for stage in Stage::ALL {
            assert!(
                table.contains(stage.name()),
                "missing stage {}",
                stage.name()
            );
        }
    }

    #[test]
    fn json_round_trips_through_serde_value() {
        // The report must stay parseable JSON.
        let parsed: serde_json::Value = serde_json::from_str(&sample().to_json()).unwrap();
        match parsed {
            serde_json::Value::Map(fields) => assert_eq!(fields.len(), 4),
            other => panic!("expected object, got {other:?}"),
        }
    }
}
