//! Metrics from the passes of a run, and the report that prints them.

use crate::pipeline::Pass;
use crate::trace::{Layer, LayerTotals};
use crate::workload::Spec;
use procmine_log::codec::flowmark;
use procmine_log::WorkflowLog;
use std::error::Error;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::time::{Duration, Instant};

pub type Totals = [LayerTotals; Layer::ALL.len()];

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The median; the mean of the two middle values for an even count.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => values[n / 2],
        _ => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// The nearest-rank percentile `p` (0–100).
fn percentile(values: &mut [f64], p: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn median_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&mut items.iter().map(f).collect::<Vec<_>>())
}

/// Prints the input's descriptors and the host it ran on.
pub fn descriptors(spec: &Spec, descriptor: &[(String, String)]) {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!("workload {} ({:?})", spec.name, spec.mode);
    for (k, v) in descriptor {
        println!("  {k:<20} {v}");
    }
    println!("  {:<20} {cores}", "host_cores");
    println!("  {:<20} {profile}", "build_profile");
}

/// Peak resident memory of this process, from `VmHWM`.
fn peak_rss_mb() -> Result<f64, Box<dyn Error>> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb * 1024.0 / 1e6)
}

/// Records rejected plus cases evicted, over records and cases attempted.
fn failed_ratio<'a>(passes: impl Iterator<Item = &'a Pass>) -> f64 {
    let (mut failed, mut attempted) = (0u64, 0u64);
    for p in passes {
        failed += p.counts.records_rejected + p.counts.cases_evicted;
        attempted += p.counts.records_attempted + p.counts.cases;
    }
    failed as f64 / attempted.max(1) as f64
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(passes: &[Pass]) -> Result<Vec<Metric>, Box<dyn Error>> {
    let wall = median_of(passes, |p| secs(p.wall));
    let counts = passes[0].counts;
    // Each pass's own p50 and p90 refresh, then the median over passes:
    // one slow pass moves a pass-level figure, not the run's.
    let refresh_ms = |p: &Pass, pct: f64| {
        let mut ms: Vec<f64> = p.refreshes.iter().map(|&d| secs(d) * 1e3).collect();
        percentile(&mut ms, pct)
    };
    let refreshes: usize = passes.iter().map(|p| p.refreshes.len()).sum();
    let mut walls: Vec<f64> = passes.iter().map(|p| secs(p.wall)).collect();
    println!(
        "passes {}, model refreshes {}, failed_ratio {}",
        passes.len(),
        refreshes,
        failed_ratio(passes.iter())
    );
    println!(
        "  wall_s per pass: min {:.4} p25 {:.4} p50 {:.4} p75 {:.4} max {:.4}",
        percentile(&mut walls, 0.0),
        percentile(&mut walls, 25.0),
        percentile(&mut walls, 50.0),
        percentile(&mut walls, 75.0),
        percentile(&mut walls, 100.0)
    );
    let metrics = vec![
        metric("model_s", median_of(passes, |p| secs(p.model)), "s"),
        metric("wall_s", wall, "s"),
        metric("mb_per_s", counts.bytes as f64 / 1e6 / wall, "MB/s"),
        metric("events_per_s", counts.events as f64 / wall, "events/s"),
        metric("peak_rss_mb", peak_rss_mb()?, "MB"),
        metric(
            "snapshot_ms_p50",
            median_of(passes, |p| refresh_ms(p, 50.0)),
            "ms",
        ),
        metric(
            "snapshot_ms_p90",
            median_of(passes, |p| refresh_ms(p, 90.0)),
            "ms",
        ),
    ];
    for m in &metrics {
        println!("  {:<20} {:>14.6} {}", m.name, m.value, m.unit);
    }
    Ok(metrics)
}

/// Layer measurements made outside the command: a bare newline scan of
/// the input and `WorkflowLog::from_events` on its parsed records.
pub struct Helpers {
    scan_s: f64,
    assemble_s: f64,
}

const HELPER_REPS: usize = 3;

pub fn helpers(input: &Path) -> Result<Helpers, Box<dyn Error>> {
    let mut scan = Vec::new();
    for _ in 0..HELPER_REPS {
        let started = Instant::now();
        let mut reader = BufReader::with_capacity(1 << 16, File::open(input)?);
        let mut lines = 0usize;
        loop {
            let buf = reader.fill_buf()?;
            if buf.is_empty() {
                break;
            }
            lines += buf.iter().filter(|&&b| b == b'\n').count();
            let n = buf.len();
            reader.consume(n);
        }
        std::hint::black_box(lines);
        scan.push(secs(started.elapsed()));
    }
    let records = flowmark::read_events(BufReader::new(File::open(input)?))?;
    let mut assemble = Vec::new();
    for _ in 0..HELPER_REPS {
        let started = Instant::now();
        let log = WorkflowLog::from_events(&records)?;
        assemble.push(secs(started.elapsed()));
        std::hint::black_box(log);
    }
    Ok(Helpers {
        scan_s: median(&mut scan),
        assemble_s: median(&mut assemble),
    })
}

type Value = fn(&Pass, &Totals) -> f64;

/// Per-layer metrics taken from one pass: name, unit, the layer whose
/// span must have run for the value to apply, and the value.
const LAYER_METRICS: [(&str, &str, Layer, Value); 24] = [
    ("log.codec.busy_s", "s", Layer::Codec, |_, t| {
        busy(t, Layer::Codec)
    }),
    ("log.codec.mb_per_s", "MB/s", Layer::Codec, |p, t| {
        p.counts.bytes as f64 / 1e6 / busy(t, Layer::Codec)
    }),
    ("log.codec.events", "count", Layer::Codec, |p, _| {
        p.counts.events as f64
    }),
    (
        "log.codec.records_skipped",
        "count",
        Layer::Codec,
        |p, _| p.counts.records_rejected as f64,
    ),
    ("core.mine.busy_s", "s", Layer::Mine, |_, t| {
        busy(t, Layer::Mine)
    }),
    ("core.mine.pairs_counted", "count", Layer::Mine, |p, _| {
        p.counts.pairs_counted as f64
    }),
    ("core.mine.edges_final", "count", Layer::Mine, |p, _| {
        p.counts.edges_final as f64
    }),
    (
        "core.conformance.busy_s",
        "s",
        Layer::Conformance,
        |_, t| busy(t, Layer::Conformance),
    ),
    (
        "core.conformance.executions_checked",
        "count",
        Layer::Conformance,
        |p, _| p.counts.executions_checked as f64,
    ),
    ("core.splits.busy_s", "s", Layer::Splits, |_, t| {
        busy(t, Layer::Splits)
    }),
    ("graph.paths.busy_s", "s", Layer::Paths, |_, t| {
        busy(t, Layer::Paths)
    }),
    ("core.model.render_busy_s", "s", Layer::Render, |_, t| {
        busy(t, Layer::Render)
    }),
    ("core.model.render_bytes", "bytes", Layer::Render, |p, _| {
        p.counts.render_bytes as f64
    }),
    ("log.stream.source_busy_s", "s", Layer::Source, |_, t| {
        busy(t, Layer::Source)
    }),
    (
        "log.stream.assembler_busy_s",
        "s",
        Layer::Assembler,
        |_, t| busy(t, Layer::Assembler),
    ),
    (
        "log.stream.assembler_self_s",
        "s",
        Layer::Assembler,
        |_, t| secs(t[Layer::Assembler as usize].self_time),
    ),
    (
        "log.stream.open_cases_max",
        "count",
        Layer::Assembler,
        |p, _| p.counts.open_cases_max as f64,
    ),
    (
        "log.stream.cases_evicted",
        "count",
        Layer::Assembler,
        |p, _| p.counts.cases_evicted as f64,
    ),
    ("core.online.absorb_busy_s", "s", Layer::Absorb, |_, t| {
        busy(t, Layer::Absorb)
    }),
    (
        "core.online.snapshot_busy_s",
        "s",
        Layer::Snapshot,
        |_, t| busy(t, Layer::Snapshot),
    ),
    ("core.online.snapshots", "count", Layer::Snapshot, |p, _| {
        p.counts.snapshots as f64
    }),
    (
        "core.checkpoint.save_busy_s",
        "s",
        Layer::Checkpoint,
        |_, t| busy(t, Layer::Checkpoint),
    ),
    (
        "core.checkpoint.saves",
        "count",
        Layer::Checkpoint,
        |p, _| p.counts.checkpoint_saves as f64,
    ),
    (
        "core.checkpoint.bytes",
        "bytes",
        Layer::Checkpoint,
        |p, _| p.counts.checkpoint_bytes as f64,
    ),
];

fn busy(t: &Totals, layer: Layer) -> f64 {
    secs(t[layer as usize].busy)
}

/// The per-layer metrics of a traced run. A layer on the workload's own
/// path reports the median over the traced passes; a layer that is not
/// reports the one cross-check pass of the other command over the same
/// input, which runs outside the timed passes.
pub fn per_layer(
    plain: &[Pass],
    traced: &[(Pass, Totals, Duration)],
    cross: (&Pass, &Totals),
    helpers: &Helpers,
) -> Vec<Metric> {
    let on_path = |layer: Layer| traced[0].1[layer as usize].calls > 0;
    let untraced_wall = median_of(plain, |p| secs(p.wall));
    let traced_wall = median_of(traced, |(p, _, _)| secs(p.wall));
    let uncovered = median_of(traced, |(p, _, covered)| {
        1.0 - secs(*covered) / secs(p.wall)
    });

    println!(
        "traced passes {}, untraced passes {}",
        traced.len(),
        plain.len()
    );
    println!(
        "  {:<22} {:>10} {:>10} {:>9} {:>7}  measured on",
        "span", "busy_s", "self_s", "calls", "%wall"
    );
    for layer in Layer::ALL {
        let (busy_s, self_s, calls, share, from) = if on_path(layer) {
            let b = median_of(traced, |(_, t, _)| busy(t, layer));
            let s = median_of(traced, |(_, t, _)| secs(t[layer as usize].self_time));
            let c = traced[0].1[layer as usize].calls;
            (
                b,
                s,
                c,
                format!("{:.1}", 100.0 * b / traced_wall),
                "this workload",
            )
        } else {
            let t = &cross.1[layer as usize];
            (
                secs(t.busy),
                secs(t.self_time),
                t.calls,
                "-".into(),
                "cross-check pass",
            )
        };
        println!(
            "  {:<22} {busy_s:>10.6} {self_s:>10.6} {calls:>9} {share:>7}  {from}",
            layer.name()
        );
    }
    println!(
        "  uncovered {:.2}% of traced wall; tracing overhead {:+.6} s ({:+.2}%)",
        100.0 * uncovered,
        traced_wall - untraced_wall,
        100.0 * (traced_wall - untraced_wall) / untraced_wall
    );

    let mut metrics: Vec<Metric> = LAYER_METRICS
        .iter()
        .map(|&(name, unit, layer, value)| {
            let v = if on_path(layer) {
                median_of(traced, |(p, t, _)| value(p, t))
            } else {
                value(cross.0, cross.1)
            };
            metric(name, v, unit)
        })
        .collect();
    let codec_busy = metrics[0].value;
    metrics.extend([
        metric("log.scan.busy_s", helpers.scan_s, "s"),
        metric("log.assemble.busy_s", helpers.assemble_s, "s"),
        metric("log.parse.busy_s", codec_busy - helpers.assemble_s, "s"),
        metric("trace.wall_s", traced_wall, "s"),
        metric("trace.uncovered_share", uncovered, "share"),
        metric("trace.overhead_s", traced_wall - untraced_wall, "s"),
        metric(
            "trace.overhead_share",
            (traced_wall - untraced_wall) / untraced_wall,
            "share",
        ),
        metric(
            "failed_ratio",
            failed_ratio(plain.iter().chain(traced.iter().map(|(p, _, _)| p))),
            "share",
        ),
    ]);
    for m in &metrics {
        println!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    metrics
}

/// Prints the run's result as the last line of standard output.
pub fn print_result(attempted: usize, failed: usize, metrics: &[Metric]) {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    );
}
