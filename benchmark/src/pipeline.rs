//! The two commands the benchmark drives, as sequences of public calls
//! made in the order `mine --check` and `mine --follow --checkpoint`
//! make them (`crates/cli/src/commands.rs`), with one mining thread and
//! the program's tracer and registry left disabled. Output that the CLI
//! prints or writes is rendered into memory.

use crate::trace::{Layer, Trace};
use crate::workload::{named_support, Edges, MAX_OPEN_CASES};
use procmine_core::conformance::check_conformance_in;
use procmine_core::{
    mine_auto_in, ConformanceMetrics, FollowCheckpoint, MetricsSink, MineSession, MinedModel,
    MinerMetrics, MinerOptions, OnlineMiner, OptionsFingerprint, SnapshotPolicy, SourceState,
};
use procmine_log::codec::{flowmark, CodecStats};
use procmine_log::stream::{
    AssemblerConfig, CaseAssembler, FlowmarkSource, Observer, RetryPolicy, StreamError, StreamSink,
    TailReader,
};
use procmine_log::validate::AssemblyPolicy;
use procmine_log::{ActivityTable, Execution, IngestReport, RecoveryPolicy};
use std::error::Error;
use std::fmt::Write as _;
use std::fs::File;
use std::io::BufReader;
use std::path::Path;
use std::time::{Duration, Instant};

/// What one pass of a command produced, for the metrics and the checks.
#[derive(Debug, Default)]
pub struct Pass {
    /// The whole command.
    pub wall: Duration,
    /// Log bytes on disk to the final `MinedModel`.
    pub model: Duration,
    /// Each model built from events already in memory: the
    /// `mine_auto_in` call of a batch pass, every `snapshot_in` of a
    /// follow pass.
    pub refreshes: Vec<Duration>,
    /// The final model's edges with supports, by name, sorted.
    pub edges: Edges,
    /// Batch only: the conformance verdict.
    pub conformal: Option<bool>,
    pub counts: Counts,
}

/// Work counts of one pass, from the program's own counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub bytes: u64,
    pub events: u64,
    pub records_attempted: u64,
    pub records_rejected: u64,
    pub cases: u64,
    pub cases_evicted: u64,
    pub cases_skipped: u64,
    pub pairs_counted: u64,
    pub edges_final: u64,
    pub executions_checked: u64,
    pub render_bytes: u64,
    pub open_cases_max: u64,
    pub snapshots: u64,
    pub checkpoint_saves: u64,
    pub checkpoint_bytes: u64,
}

fn options() -> MinerOptions {
    MinerOptions::with_threshold(1)
}

/// The edge listing `mine` prints after the summary line.
fn render_edges(out: &mut String, model: &MinedModel) {
    for (u, v) in model.edges_named() {
        let _ = writeln!(out, "  {u} -> {v}");
    }
}

/// `mine --check --dot --json`: ingest, mine, list edges, route
/// analytics, gateway analysis, DOT/JSON rendering, conformance replay.
pub fn batch(path: &Path, trace: &Trace) -> Result<Pass, Box<dyn Error>> {
    let started = Instant::now();
    let mut stats = CodecStats::default();
    let mut report = IngestReport::default();
    let log = trace.span(Layer::Codec, || {
        let reader = BufReader::new(File::open(path)?);
        flowmark::read_log_with(reader, RecoveryPolicy::Strict, &mut stats, &mut report)
    })?;
    let mut metrics = MinerMetrics::new();
    let mut session = MineSession::new().with_threads(1).with_sink(&mut metrics);
    let mine_started = Instant::now();
    let (model, _) = trace.span(Layer::Mine, || mine_auto_in(&mut session, &log, &options()))?;
    let model_done = Instant::now();
    drop(session);

    let mut out = String::new();
    trace.span(Layer::Render, || render_edges(&mut out, &model));
    trace.span(Layer::Paths, || {
        let g = model.graph();
        if let (&[source], &[sink]) = (&g.sources()[..], &g.sinks()[..]) {
            if let Ok(routes) = procmine_graph::paths::count_paths(g, source, sink) {
                let _ = writeln!(out, "distinct routes: {routes}");
            }
            if let Ok(Some(critical)) = procmine_graph::paths::longest_path(g, source, sink) {
                let names: Vec<&str> = critical.iter().map(|&v| g.node(v).as_str()).collect();
                let _ = writeln!(out, "critical path:   {}", names.join(" -> "));
            }
            let mandatory = procmine_graph::dominators::mandatory_activities(g, source, sink);
            let names: Vec<&str> = mandatory.iter().map(|&v| g.node(v).as_str()).collect();
            let _ = writeln!(out, "mandatory:       {}", names.join(", "));
        }
    });
    trace.span(Layer::Splits, || {
        let gateways = procmine_core::splits::analyze_gateways(&model, &log);
        for gw in gateways.splits.iter().chain(&gateways.joins) {
            let _ = writeln!(
                out,
                "{}: {} over {{{}}}",
                gw.activity,
                gw.kind,
                gw.branches.join(", ")
            );
        }
    });
    let artifacts = trace.span(Layer::Render, || -> Result<usize, serde_json::Error> {
        let dot = model.to_dot("mined");
        let json = serde_json::to_string_pretty(&model)?;
        Ok(dot.len() + json.len())
    })?;
    let mut conformance = ConformanceMetrics::new();
    let conformal = trace.span(Layer::Conformance, || {
        check_conformance_in(
            &mut MineSession::new().with_sink(&mut conformance),
            &model,
            &log,
        )
        .is_conformal()
    });
    let wall = started.elapsed();

    Ok(Pass {
        wall,
        model: model_done - started,
        refreshes: vec![model_done - mine_started],
        edges: named_support(&model),
        conformal: Some(conformal),
        counts: Counts {
            bytes: stats.bytes_read,
            events: stats.events_parsed,
            records_attempted: report.records_parsed + report.records_skipped,
            records_rejected: report.records_skipped,
            cases: log.len() as u64,
            pairs_counted: metrics.pairs_counted,
            edges_final: metrics.edges_final,
            executions_checked: conformance.executions_checked,
            render_bytes: (out.len() + artifacts) as u64,
            ..Counts::default()
        },
    })
}

/// Follow cadence: `--snapshot-every` (`None`: only the final model)
/// and `--checkpoint-every` (`None`: only the end-of-stream save).
#[derive(Debug, Clone, Copy)]
pub struct Cadence {
    pub snapshot_every: Option<u64>,
    pub checkpoint_every: Option<u64>,
}

/// The consumer end of the follow pipeline, as in `mine --follow`:
/// absorbs each completed execution and takes a snapshot when the
/// cadence asks for one.
struct Consumer<'a, S: MetricsSink> {
    miner: &'a mut OnlineMiner,
    session: &'a mut MineSession<S>,
    trace: &'a Trace,
    refreshes: &'a mut Vec<Duration>,
    skipped: &'a mut u64,
}

impl<S: MetricsSink> Observer for Consumer<'_, S> {
    fn on_execution(&mut self, exec: &Execution, table: &ActivityTable) -> Result<(), StreamError> {
        match self
            .trace
            .span(Layer::Absorb, || self.miner.absorb(exec, table))
        {
            Ok(false) => Ok(()),
            Ok(true) => {
                let started = Instant::now();
                self.trace
                    .span(Layer::Snapshot, || self.miner.snapshot_in(self.session))
                    .map_err(|e| StreamError::Sink(Box::new(e)))?;
                self.refreshes.push(started.elapsed());
                Ok(())
            }
            Err(_) => {
                *self.skipped += 1;
                Ok(())
            }
        }
    }
}

/// `mine --follow --checkpoint`: decode events, assemble interleaved
/// cases, absorb them into the online miner, snapshot and checkpoint on
/// the cadence, then build the final model and list its edges.
pub fn follow(
    path: &Path,
    checkpoint: &Path,
    cadence: Cadence,
    trace: &Trace,
) -> Result<Pass, Box<dyn Error>> {
    let options = options();
    let fingerprint = OptionsFingerprint {
        noise_threshold: options.noise_threshold,
        max_open_cases: MAX_OPEN_CASES as u64,
        strict_assembly: true,
    };
    let config = AssemblerConfig {
        max_open_cases: MAX_OPEN_CASES,
        assembly: AssemblyPolicy::Strict,
    };
    let policy = match cadence.snapshot_every {
        Some(n) => SnapshotPolicy::every(n),
        None => SnapshotPolicy::on_demand(),
    };
    let mut miner = OnlineMiner::new(options, policy);
    let mut metrics = MinerMetrics::new();
    let mut session = MineSession::new().with_sink(&mut metrics);
    let mut refreshes = Vec::new();
    let mut skipped = 0u64;
    let started = Instant::now();

    let tail = TailReader::new(
        File::open(path)?,
        Duration::from_millis(50),
        Some(Duration::ZERO),
    )
    .with_retry(RetryPolicy::with_retries(3))
    .watching(path, 0);
    let mut source =
        FlowmarkSource::with_origin(BufReader::new(tail), RecoveryPolicy::Strict, 0, 0);
    let consumer = Consumer {
        miner: &mut miner,
        session: &mut session,
        trace,
        refreshes: &mut refreshes,
        skipped: &mut skipped,
    };
    let mut assembler = CaseAssembler::new(config, consumer);
    let save = |assembler: &CaseAssembler<Consumer<'_, _>>,
                source: &FlowmarkSource<_>|
     -> Result<u64, Box<dyn Error>> {
        trace.span(Layer::Checkpoint, || {
            let (byte_offset, line) = source.position();
            FollowCheckpoint {
                fingerprint,
                miner: assembler.observer().miner.export_state(),
                assembler: assembler.export_state(),
                source: SourceState {
                    byte_offset,
                    line: line as u64,
                    source_len: std::fs::metadata(path)?.len().max(byte_offset),
                    stats: source.stats(),
                    report: source.report().clone(),
                },
            }
            .save(checkpoint)?;
            Ok(std::fs::metadata(checkpoint)?.len())
        })
    };

    let mut counts = Counts::default();
    let every = cadence.checkpoint_every.unwrap_or(u64::MAX);
    let mut since_save = 0u64;
    let mut at = trace.now();
    loop {
        let (next, end) = trace.span_from(Layer::Source, at, || source.next_event());
        let Some((event, location)) = next? else {
            break;
        };
        let (fed, end) = trace.span_from(Layer::Assembler, end, || {
            let fed = assembler.on_event(event, location);
            counts.open_cases_max = counts.open_cases_max.max(assembler.open_cases() as u64);
            fed
        });
        fed?;
        at = end;
        since_save += 1;
        if since_save >= every {
            counts.checkpoint_bytes = save(&assembler, &source)?;
            counts.checkpoint_saves += 1;
            since_save = 0;
            at = trace.now();
        }
    }
    trace.span(Layer::Assembler, || assembler.finish())?;
    counts.checkpoint_bytes = save(&assembler, &source)?;
    counts.checkpoint_saves += 1;

    let stats = source.stats();
    let cases = assembler.executions_emitted();
    let mut report = source.report().clone();
    report.merge(assembler.report());
    drop(assembler);
    let final_started = Instant::now();
    let model = trace.span(Layer::Snapshot, || miner.snapshot_in(&mut session))?;
    let model_done = Instant::now();
    refreshes.push(model_done - final_started);
    drop(session);
    let mut out = String::new();
    trace.span(Layer::Render, || render_edges(&mut out, &model));
    let wall = started.elapsed();

    Ok(Pass {
        wall,
        model: model_done - started,
        refreshes,
        edges: named_support(&model),
        conformal: None,
        counts: Counts {
            bytes: stats.bytes_read,
            events: stats.events_parsed,
            records_attempted: report.records_parsed + report.records_skipped,
            records_rejected: report.records_skipped,
            cases,
            cases_evicted: report.cases_evicted,
            cases_skipped: skipped,
            render_bytes: out.len() as u64,
            snapshots: miner.snapshots_taken(),
            ..counts
        },
    })
}
