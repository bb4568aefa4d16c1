//! Telemetry for conditions mining, on the same
//! [`MetricsSink`] machinery as the miner and conformance layers: the
//! session-based entry points are generic over
//! `S: MetricsSink<ClassifyMetrics>`, and with
//! [`NullSink`](procmine_core::NullSink) every guard is `if false` and
//! the instrumentation compiles to nothing. Its cells are declared once
//! through [`Counters`], which supplies merging, the JSON report and
//! the table.

use procmine_core::telemetry::{Cell, Counters, Merge};
use procmine_core::MetricsSink;
use std::fmt;

/// Counters and timers collected by one conditions-mining run (see
/// [`learn_edge_conditions_in`]): edges visited, training rows
/// extracted, candidate splits evaluated while growing trees, the
/// deepest tree fitted, and total learn time. Fields accumulate.
///
/// [`learn_edge_conditions_in`]: crate::learn_edge_conditions_in
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ClassifyMetrics {
    /// Model edges a condition was learned (or counted) for.
    pub edges_considered: u64,
    /// Edges with no recorded outputs, falling back to co-occurrence
    /// support.
    pub edges_without_outputs: u64,
    /// Training rows extracted across all edge datasets.
    pub rows_extracted: u64,
    /// Candidate `(feature, threshold)` splits whose Gini gain was
    /// evaluated during tree growth.
    pub splits_evaluated: u64,
    /// Decision trees fitted.
    pub trees_fitted: u64,
    /// Depth of the deepest fitted tree (merge takes the max).
    pub max_tree_depth: u64,
    /// Nanoseconds spent learning end to end.
    pub learn_nanos: u64,
}

impl ClassifyMetrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        ClassifyMetrics::default()
    }
}

impl Counters for ClassifyMetrics {
    const NAME: &'static str = "classify";

    // A table, one line per cell, so rustfmt is told to keep out.
    #[rustfmt::skip]
    fn cells_mut(&mut self) -> Vec<Cell<&mut u64>> {
        use Merge::{Max, Sum};
        let c = "counters";
        vec![
            (c, "edges_considered", Sum, &mut self.edges_considered),
            (c, "edges_without_outputs", Sum, &mut self.edges_without_outputs),
            (c, "rows_extracted", Sum, &mut self.rows_extracted),
            (c, "splits_evaluated", Sum, &mut self.splits_evaluated),
            (c, "trees_fitted", Sum, &mut self.trees_fitted),
            (c, "max_tree_depth", Max, &mut self.max_tree_depth),
            ("timers_ns", "learn", Sum, &mut self.learn_nanos),
        ]
    }
}

impl fmt::Display for ClassifyMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render_table())
    }
}

impl MetricsSink<ClassifyMetrics> for ClassifyMetrics {
    const ENABLED: bool = true;

    fn record(&mut self, update: impl FnOnce(&mut ClassifyMetrics)) {
        update(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use procmine_core::NullSink;

    fn sample() -> ClassifyMetrics {
        ClassifyMetrics {
            edges_considered: 1,
            edges_without_outputs: 2,
            rows_extracted: 3,
            splits_evaluated: 4,
            trees_fitted: 5,
            max_tree_depth: 6,
            learn_nanos: 7,
        }
    }

    #[test]
    fn json_schema_is_locked() {
        assert_eq!(
            sample().to_json(),
            concat!(
                "{\"counters\":{\"edges_considered\":1,\"edges_without_outputs\":2,",
                "\"rows_extracted\":3,\"splits_evaluated\":4,\"trees_fitted\":5,",
                "\"max_tree_depth\":6},\"timers_ns\":{\"learn\":7}}"
            )
        );
    }

    #[test]
    fn merge_adds_counters_and_maxes_depth() {
        let mut a = sample();
        let mut b = sample();
        b.max_tree_depth = 2;
        a.merge(&b);
        assert_eq!(a.edges_considered, 2);
        assert_eq!(a.rows_extracted, 6);
        assert_eq!(a.splits_evaluated, 8);
        assert_eq!(a.learn_nanos, 14);
        assert_eq!(a.max_tree_depth, 6, "depth merges by max, not sum");
    }

    #[test]
    fn table_lists_all_keys() {
        let table = sample().render_table();
        for (name, _) in sample().counters() {
            assert!(table.contains(name), "missing counter {name}");
        }
        assert!(table.contains("learn"));
    }

    #[test]
    fn null_sink_is_disabled_for_classify_metrics() {
        const _: () = assert!(!<NullSink as MetricsSink<ClassifyMetrics>>::ENABLED);
        const _: () = assert!(<ClassifyMetrics as MetricsSink<ClassifyMetrics>>::ENABLED);
        let mut sink = NullSink;
        MetricsSink::<ClassifyMetrics>::record(&mut sink, |m: &mut ClassifyMetrics| {
            m.trees_fitted += 1
        });
    }
}
