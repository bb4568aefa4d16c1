//! The perfsuite schema: summarized timing cells, JSON serialization,
//! and baseline comparison for the `perfsuite` binary.
//!
//! A perfsuite run produces a `BENCH_perfsuite.json` with a stable
//! schema (`procmine-perfsuite/v1`): one cell per `(scenario, stage)`
//! with median and p95 wall times over a fixed number of repeats, plus
//! a trace-overhead measurement guarding the zero-cost claim of the
//! disabled tracer. [`compare`] diffs two reports cell-by-cell and
//! flags median regressions beyond a threshold, so CI (or a developer
//! with a saved baseline) can catch slowdowns without eyeballing
//! Criterion output.

use serde_json::Value;

/// The schema tag written to (and required of) every perfsuite report.
pub const SCHEMA: &str = "procmine-perfsuite/v1";

/// Summarized timings for one `(scenario, stage)` cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Workload name, e.g. `rw25x224m1000`.
    pub scenario: String,
    /// Pipeline stage or operation, e.g. `mine.general`.
    pub stage: String,
    /// Median wall time across the runs, in nanoseconds.
    pub median_ns: u64,
    /// 95th-percentile wall time (nearest rank), in nanoseconds.
    pub p95_ns: u64,
    /// Number of timed runs behind the summary.
    pub runs: usize,
    /// Under `--normalize`: this cell's median as a multiple of the
    /// same-scenario `mine.general` median. `None` when not
    /// normalizing, or when the scenario has no `mine.general` cell
    /// (the `micro` graph phases).
    pub ratio_vs_general: Option<f64>,
}

/// The disabled-tracer overhead guard: the plain entry point against
/// a session carrying a disabled tracer, same workload.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceOverhead {
    /// Median of the plain (un-traced) mining calls.
    pub plain_median_ns: u64,
    /// Median of the session calls with `Tracer::disabled()`.
    pub traced_disabled_median_ns: u64,
    /// `traced_disabled / plain`; ~1.0 when disabled tracing is free.
    pub ratio: f64,
}

/// A full perfsuite report.
#[derive(Debug, Clone)]
pub struct Report {
    /// `smoke` or `full`.
    pub mode: String,
    /// Repeats per cell.
    pub repeats: usize,
    /// One summarized cell per `(scenario, stage)`.
    pub cells: Vec<Cell>,
    /// The disabled-tracer overhead guard, when measured.
    pub trace_overhead: Option<TraceOverhead>,
}

/// Nearest-rank percentile of an ascending-sorted slice.
fn percentile(sorted: &[u64], p: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len()).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// Collapses raw samples into a [`Cell`].
pub fn summarize(scenario: &str, stage: &str, mut samples: Vec<u64>) -> Cell {
    samples.sort_unstable();
    Cell {
        scenario: scenario.to_string(),
        stage: stage.to_string(),
        median_ns: percentile(&samples, 50),
        p95_ns: percentile(&samples, 95),
        runs: samples.len(),
        ratio_vs_general: None,
    }
}

/// Fills each cell's `ratio_vs_general` with its median relative to the
/// same-scenario `mine.general` median — the serial reference pipeline
/// everything else is judged against. Cells in scenarios without a
/// (nonzero-median) `mine.general` cell stay `None`.
pub fn normalize(cells: &mut [Cell]) {
    let generals: Vec<(String, u64)> = cells
        .iter()
        .filter(|c| c.stage == "mine.general" && c.median_ns > 0)
        .map(|c| (c.scenario.clone(), c.median_ns))
        .collect();
    for c in cells.iter_mut() {
        c.ratio_vs_general = generals
            .iter()
            .find(|(s, _)| *s == c.scenario)
            .map(|&(_, g)| c.median_ns as f64 / g as f64);
    }
}

impl Report {
    /// Renders the report as schema-stable JSON (keys in fixed order).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.cells.len() * 96);
        out.push_str("{\n  \"schema\": \"");
        out.push_str(SCHEMA);
        out.push_str("\",\n  \"mode\": \"");
        out.push_str(&self.mode);
        out.push_str("\",\n  \"repeats\": ");
        out.push_str(&self.repeats.to_string());
        out.push_str(",\n  \"cells\": [");
        for (i, c) in self.cells.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"scenario\": \"{}\", \"stage\": \"{}\", \
                 \"median_ns\": {}, \"p95_ns\": {}, \"runs\": {}",
                c.scenario, c.stage, c.median_ns, c.p95_ns, c.runs
            ));
            if let Some(r) = c.ratio_vs_general {
                out.push_str(&format!(", \"ratio_vs_general\": {r:.4}"));
            }
            out.push('}');
        }
        out.push_str("\n  ]");
        if let Some(t) = &self.trace_overhead {
            out.push_str(&format!(
                ",\n  \"trace_overhead\": {{\"plain_median_ns\": {}, \
                 \"traced_disabled_median_ns\": {}, \"ratio\": {:.4}}}",
                t.plain_median_ns, t.traced_disabled_median_ns, t.ratio
            ));
        }
        out.push_str("\n}\n");
        out
    }

    /// Parses and validates a report previously written by
    /// [`Report::to_json`]. Errors describe the first schema violation.
    pub fn from_json(json: &str) -> Result<Report, String> {
        let value: Value = serde_json::from_str(json).map_err(|e| format!("not JSON: {e}"))?;
        let schema = match value.get("schema") {
            Some(Value::Str(s)) => s.clone(),
            _ => return Err("missing `schema` field".to_string()),
        };
        if schema != SCHEMA {
            return Err(format!("schema mismatch: `{schema}` (want `{SCHEMA}`)"));
        }
        let mode = match value.get("mode") {
            Some(Value::Str(s)) => s.clone(),
            _ => return Err("missing `mode` field".to_string()),
        };
        let repeats = value
            .get("repeats")
            .and_then(Value::as_u64)
            .ok_or("missing `repeats` field")? as usize;
        let raw_cells = match value.get("cells") {
            Some(Value::Seq(cells)) => cells,
            _ => return Err("missing `cells` array".to_string()),
        };
        let mut cells = Vec::with_capacity(raw_cells.len());
        for (i, c) in raw_cells.iter().enumerate() {
            let field_str = |key: &str| -> Result<String, String> {
                match c.get(key) {
                    Some(Value::Str(s)) => Ok(s.clone()),
                    _ => Err(format!("cell {i}: missing `{key}`")),
                }
            };
            let field_u64 = |key: &str| -> Result<u64, String> {
                c.get(key)
                    .and_then(Value::as_u64)
                    .ok_or(format!("cell {i}: missing `{key}`"))
            };
            let ratio_vs_general = match c.get("ratio_vs_general") {
                None => None,
                Some(Value::F64(r)) => Some(*r),
                Some(v) => Some(
                    v.as_u64()
                        .ok_or(format!("cell {i}: bad `ratio_vs_general`"))?
                        as f64,
                ),
            };
            cells.push(Cell {
                scenario: field_str("scenario")?,
                stage: field_str("stage")?,
                median_ns: field_u64("median_ns")?,
                p95_ns: field_u64("p95_ns")?,
                runs: field_u64("runs")? as usize,
                ratio_vs_general,
            });
        }
        let trace_overhead = match value.get("trace_overhead") {
            None => None,
            Some(t) => {
                let plain = t
                    .get("plain_median_ns")
                    .and_then(Value::as_u64)
                    .ok_or("trace_overhead: missing `plain_median_ns`")?;
                let traced = t
                    .get("traced_disabled_median_ns")
                    .and_then(Value::as_u64)
                    .ok_or("trace_overhead: missing `traced_disabled_median_ns`")?;
                let ratio = match t.get("ratio") {
                    Some(Value::F64(r)) => *r,
                    Some(v) => v.as_u64().ok_or("trace_overhead: bad `ratio`")? as f64,
                    None => return Err("trace_overhead: missing `ratio`".to_string()),
                };
                Some(TraceOverhead {
                    plain_median_ns: plain,
                    traced_disabled_median_ns: traced,
                    ratio,
                })
            }
        };
        Ok(Report {
            mode,
            repeats,
            cells,
            trace_overhead,
        })
    }
}

/// The worst (largest) per-scenario ratio of `numerator` stage median
/// over `denominator` stage median, across every scenario carrying
/// both cells. Scenarios missing either stage, or whose denominator
/// median is zero, are skipped; `None` when no scenario qualifies.
///
/// This backs the codec fast-path gate: `codec.xes` must stay within a
/// fixed multiple of `codec.jsonl` on the committed baseline.
pub fn max_stage_ratio(cells: &[Cell], numerator: &str, denominator: &str) -> Option<f64> {
    let mut worst: Option<f64> = None;
    for num in cells.iter().filter(|c| c.stage == numerator) {
        let Some(den) = cells
            .iter()
            .find(|c| c.scenario == num.scenario && c.stage == denominator && c.median_ns > 0)
        else {
            continue;
        };
        let ratio = num.median_ns as f64 / den.median_ns as f64;
        if worst.map_or(true, |w| ratio > w) {
            worst = Some(ratio);
        }
    }
    worst
}

/// One cell whose median regressed past the threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Workload name of the regressed cell.
    pub scenario: String,
    /// Stage of the regressed cell.
    pub stage: String,
    /// Baseline median, nanoseconds.
    pub old_median_ns: u64,
    /// Current median, nanoseconds.
    pub new_median_ns: u64,
    /// `new / old` slowdown factor.
    pub ratio: f64,
}

/// Compares `new` against the `old` baseline: a cell regresses when its
/// median exceeds the baseline median by more than `threshold_pct`
/// percent. Cells present in only one report are skipped (scenario
/// matrices may evolve), as are baseline cells with a zero median.
pub fn compare(old: &[Cell], new: &[Cell], threshold_pct: f64) -> Vec<Regression> {
    let mut regressions = Vec::new();
    for n in new {
        let Some(o) = old
            .iter()
            .find(|o| o.scenario == n.scenario && o.stage == n.stage)
        else {
            continue;
        };
        if o.median_ns == 0 {
            continue;
        }
        let ratio = n.median_ns as f64 / o.median_ns as f64;
        if ratio > 1.0 + threshold_pct / 100.0 {
            regressions.push(Regression {
                scenario: n.scenario.clone(),
                stage: n.stage.clone(),
                old_median_ns: o.median_ns,
                new_median_ns: n.median_ns,
                ratio,
            });
        }
    }
    regressions
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(scenario: &str, stage: &str, median: u64) -> Cell {
        Cell {
            scenario: scenario.to_string(),
            stage: stage.to_string(),
            median_ns: median,
            p95_ns: median + median / 10,
            runs: 5,
            ratio_vs_general: None,
        }
    }

    #[test]
    fn summarize_takes_median_and_p95() {
        let c = summarize("s", "mine", vec![50, 10, 30, 20, 40]);
        assert_eq!(c.median_ns, 30);
        assert_eq!(c.p95_ns, 50);
        assert_eq!(c.runs, 5);
        // Even count: nearest-rank median is the lower middle.
        let c = summarize("s", "mine", vec![4, 1, 2, 3]);
        assert_eq!(c.median_ns, 2);
    }

    #[test]
    fn summarize_of_empty_is_zero() {
        let c = summarize("s", "mine", vec![]);
        assert_eq!((c.median_ns, c.p95_ns, c.runs), (0, 0, 0));
    }

    #[test]
    fn compare_flags_doubled_medians_only() {
        let old = vec![
            cell("rw10", "mine.general", 1_000),
            cell("rw10", "codec.xes", 2_000),
            cell("gone", "mine.general", 9_000),
        ];
        let new = vec![
            cell("rw10", "mine.general", 2_000),  // 2x: regression
            cell("rw10", "codec.xes", 2_100),     // +5%: within threshold
            cell("fresh", "mine.general", 5_000), // no baseline: skipped
        ];
        let regs = compare(&old, &new, 15.0);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].scenario, "rw10");
        assert_eq!(regs[0].stage, "mine.general");
        assert!((regs[0].ratio - 2.0).abs() < 1e-9);
    }

    #[test]
    fn max_stage_ratio_takes_worst_scenario() {
        let cells = vec![
            cell("rw10", "codec.jsonl", 1_000),
            cell("rw10", "codec.xes", 1_500), // 1.5x
            cell("rw25", "codec.jsonl", 2_000),
            cell("rw25", "codec.xes", 3_800),  // 1.9x — the worst
            cell("micro", "codec.xes", 9_000), // no jsonl cell: skipped
        ];
        let worst = max_stage_ratio(&cells, "codec.xes", "codec.jsonl").unwrap();
        assert!((worst - 1.9).abs() < 1e-9, "got {worst}");
    }

    #[test]
    fn max_stage_ratio_skips_zero_denominators() {
        let cells = vec![
            cell("rw10", "codec.jsonl", 0),
            cell("rw10", "codec.xes", 1_500),
        ];
        assert_eq!(max_stage_ratio(&cells, "codec.xes", "codec.jsonl"), None);
        assert_eq!(max_stage_ratio(&[], "codec.xes", "codec.jsonl"), None);
    }

    #[test]
    fn compare_respects_custom_threshold() {
        let old = vec![cell("s", "mine", 1_000)];
        let new = vec![cell("s", "mine", 1_200)];
        assert_eq!(compare(&old, &new, 15.0).len(), 1);
        assert!(compare(&old, &new, 25.0).is_empty());
    }

    #[test]
    fn report_json_round_trips() {
        let report = Report {
            mode: "smoke".to_string(),
            repeats: 3,
            cells: vec![cell("rw10", "mine.general", 1_000)],
            trace_overhead: Some(TraceOverhead {
                plain_median_ns: 1_000,
                traced_disabled_median_ns: 1_010,
                ratio: 1.01,
            }),
        };
        let json = report.to_json();
        let back = Report::from_json(&json).expect("round trip");
        assert_eq!(back.mode, "smoke");
        assert_eq!(back.repeats, 3);
        assert_eq!(back.cells, report.cells);
        let t = back.trace_overhead.expect("overhead present");
        assert_eq!(t.plain_median_ns, 1_000);
        assert!((t.ratio - 1.01).abs() < 1e-6);
    }

    #[test]
    fn report_without_overhead_guards_round_trips() {
        // Older reports (and guard-less runs) carry no overhead block;
        // it must stay optional on read and absent on write.
        let report = Report {
            mode: "full".to_string(),
            repeats: 5,
            cells: vec![cell("rw10", "mine.general", 1_000)],
            trace_overhead: None,
        };
        let json = report.to_json();
        assert!(!json.contains("trace_overhead"));
        let back = Report::from_json(&json).expect("round trip");
        assert!(back.trace_overhead.is_none());
    }

    #[test]
    fn normalize_ratios_against_same_scenario_general() {
        let mut cells = vec![
            cell("rw10", "mine.general", 2_000),
            cell("rw10", "mine.parallel4", 1_000),
            cell("rw25", "mine.general", 4_000),
            cell("rw25", "codec.xes", 8_000),
            cell("micro", "scc", 500),
        ];
        normalize(&mut cells);
        let ratio = |scenario: &str, stage: &str| {
            cells
                .iter()
                .find(|c| c.scenario == scenario && c.stage == stage)
                .unwrap()
                .ratio_vs_general
        };
        assert_eq!(ratio("rw10", "mine.general"), Some(1.0));
        assert_eq!(ratio("rw10", "mine.parallel4"), Some(0.5));
        assert_eq!(ratio("rw25", "codec.xes"), Some(2.0));
        assert_eq!(
            ratio("micro", "scc"),
            None,
            "no mine.general to normalize by"
        );
    }

    #[test]
    fn normalized_ratio_round_trips_through_json() {
        let mut c = cell("rw10", "mine.parallel4", 500);
        c.ratio_vs_general = Some(0.25);
        let report = Report {
            mode: "smoke".to_string(),
            repeats: 3,
            cells: vec![c, cell("micro", "scc", 100)],
            trace_overhead: None,
        };
        let back = Report::from_json(&report.to_json()).expect("round trip");
        assert_eq!(back.cells[0].ratio_vs_general, Some(0.25));
        assert_eq!(back.cells[1].ratio_vs_general, None);
    }

    #[test]
    fn from_json_rejects_wrong_schema() {
        let json = r#"{"schema": "something-else/v9", "mode": "smoke", "repeats": 3, "cells": []}"#;
        let err = Report::from_json(json).expect_err("must reject");
        assert!(err.contains("schema mismatch"), "{err}");
        assert!(Report::from_json("not json at all").is_err());
        assert!(Report::from_json(r#"{"mode": "smoke"}"#).is_err());
    }
}
