//! Command implementations: `generate`, `mine`, `check`, `conditions`,
//! `info`, `help`.

use crate::args::{parse, ArgError, Parsed};
use crate::metrics::{record_ingest, registry_from_args, write_metrics, write_metrics_atomic};
use crate::output::{errln, out, outln};
use procmine_classify::{ClassifyMetrics, TreeConfig};
use procmine_core::telemetry::format_nanos;
use procmine_core::{
    conformance, mine_auto_in, mine_cyclic_in, mine_general_dag_in, mine_special_dag_in, Algorithm,
    ConformanceMetrics, Counter, Counters, Histogram, Lane, MetricsSink, MineSession, MinedModel,
    MinerMetrics, MinerOptions, Registry, StageClock, Tracer,
};
use procmine_log::codec::{CodecStats, IngestReport, RecoveryPolicy};
use procmine_log::{codec, WorkflowLog};
use procmine_sim::{engine, presets, randdag, walk, ProcessModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::error::Error;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};

type CliResult = Result<(), Box<dyn Error>>;

const USAGE: &str = "\
procmine — mine process models from workflow logs
(Agrawal, Gunopulos, Leymann; EDBT 1998)

USAGE:
  procmine <command> [options]

COMMANDS:
  generate    Generate a synthetic workflow log
      --preset NAME        graph10 | upload | stress | pend | swap | uwi | order
      --model FILE         load a process-model definition file instead
      --random-dag N       random DAG with N vertices instead of a preset
      --edge-prob P        edge probability for --random-dag (default 0.5)
      --executions M       number of executions (default 100)
      --seed S             RNG seed (default 42)
      --engine KIND        walk (§8.1 random walk, default) | conditions
                           (condition-driven engine with outputs)
      --agents N           concurrent agents for --engine conditions (default 1)
      --duration LO..HI    activity duration range for --engine conditions
      --format F           flowmark (default) | seqs | jsonl | xes
      -o / --out FILE      output file (default: stdout)

  mine        Mine a process model from a log
      <LOG>                input log file
      --format F           flowmark (default) | seqs | jsonl | xes
      --algorithm A        auto (default) | special | general | cyclic
      --threshold T        noise threshold (default 1)
      --dot FILE           write the mined graph as Graphviz DOT
      --graphml FILE       write the mined graph as GraphML (yEd/Gephi)
      --json FILE          write the mined model as JSON
      --bpmn FILE          write the mined model as BPMN 2.0 XML
      --check              verify conformance (Definition 7) after mining
      --follow             online mining over a live event stream
                           (flowmark format; cases may interleave).
                           <LOG> may be `-` for stdin; final model
                           prints in the same shape as batch mining,
                           except the split/join gateway lines, which
                           need the materialized log (batch only)
      --snapshot-every N   with --follow: print an interim model
                           summary to stderr every N absorbed events
      --max-open-cases N   with --follow: bound on concurrently open
                           cases before the least-recently-touched one
                           is evicted (default 1024; 0 = unbounded)
      --idle-ms MS         with --follow on a file: keep tailing the
                           file as it grows, giving up after MS of
                           inactivity (default 0: read to EOF once)
      --poll-ms MS         with --follow --idle-ms: poll interval while
                           tailing (default 50)
      --checkpoint FILE    with --follow on a file: save resumable
                           pipeline state (miner counts, open cases,
                           source position) to FILE atomically every
                           --checkpoint-every events and at end of
                           stream; if FILE already exists the session
                           resumes from it instead of re-reading the
                           log. Corrupt checkpoints are refused
                           (--recover discards them and cold-starts);
                           changed mining options always refuse
      --checkpoint-every N with --checkpoint: consumed events between
                           saves (default 500000)
      --io-retries N       with --follow on a file: transient read
                           errors are retried with exponential backoff
                           up to N times before failing (default 3)
      --threads N          mine with the parallel general miner on N
                           threads (requires --algorithm auto|general;
                           not combinable with --follow); with
                           --format xes the log is also decoded in
                           parallel chunks
      --stats              print pipeline telemetry (ingest time,
                           stage timings, counters, codec byte/event
                           tallies; with --check also conformance
                           counters; with --threads also per-stage wall
                           time and cpu/wall parallel efficiency)
      --stats-json FILE    write the same telemetry as JSON with a
                           stable key order
      --recover            skip undecodable records instead of aborting;
                           an ingest summary goes to stderr
      --max-errors N       like --recover but abort after N decode
                           errors
      --deadline-ms MS     abort mining if it exceeds MS milliseconds of
                           wall-clock time
      --trace FILE         write a Chrome Trace Event file of the run
                           (load in ui.perfetto.dev or chrome://tracing)
      --metrics FILE       write a metrics export at exit: Prometheus
                           text exposition for .prom/.txt, the
                           versioned JSON snapshot otherwise (stage
                           latency histograms, ingest rates; with
                           --follow also stream-health gauges)
      --metrics-every N    with --follow --metrics FILE: atomically
                           rewrite FILE every N consumed events, safe
                           to scrape mid-stream (works with `-` stdin)

  check       Check a mined model (JSON) against a log
      <MODEL.json> <LOG>
      --format F           log format (default flowmark)
      --recover            skip undecodable records instead of aborting
      --max-errors N       like --recover but abort after N decode errors
      --json               print the conformance report as JSON on
                           stdout (exit status still reflects the
                           verdict)
      --stats              print conformance telemetry (executions
                           checked, violations by variant, closure/SCC
                           time, codec tallies, ingest time)
      --stats-json FILE    write the same telemetry as JSON
      --trace FILE         write a Chrome Trace Event file of the run
      --metrics FILE       write a metrics export at exit (format by
                           extension, as for mine)

  conditions  Mine a model and learn Boolean edge conditions (§7)
      <LOG>
      --format F           log format (default flowmark)
      --threshold T        noise threshold (default 1)
      --max-depth D        decision-tree depth limit (default 8)
      --recover            skip undecodable records instead of aborting
      --max-errors N       like --recover but abort after N decode errors
      --deadline-ms MS     abort mining if it exceeds MS milliseconds
      --stats              print miner and classifier telemetry (rows
                           extracted, splits evaluated, tree depth,
                           learn time)
      --stats-json FILE    write the same telemetry as JSON
      --trace FILE         write a Chrome Trace Event file of the run
      --metrics FILE       write a metrics export at exit (format by
                           extension, as for mine)

  report      Render a metrics export as a human-readable summary
      <SNAPSHOT>           a --metrics file (.prom/.txt: Prometheus
                           exposition; otherwise JSON snapshot)
      --trace FILE         join a Chrome Trace Event file into the
                           summary (spans aggregated per name)
      --validate           check the file instead of rendering it:
                           exposition must have HELP/TYPE per family
                           and no duplicate series; JSON must match
                           the procmine-metrics/v1 schema
      --prev FILE          with --validate: counters must be monotone
                           versus this earlier scrape

  info        Show log statistics
      <LOG>
      --format F           log format (default flowmark)

  convert     Convert a log between formats
      <IN> <OUT>
      --from F             input format (default: by file extension)
      --to F               output format (default: by file extension)

  help        Show this message

Log formats: flowmark (.fm/.csv), seqs (.seqs/.txt), jsonl (.jsonl),
xes (.xes). Where a format is defaulted from a file extension, unknown
extensions fall back to flowmark.
";

/// Entry point: dispatches on the first argument.
pub fn run(argv: &[String]) -> CliResult {
    match argv.first().map(String::as_str) {
        None | Some("help") | Some("--help") | Some("-h") => {
            out!("{USAGE}");
            Ok(())
        }
        Some("generate") => generate(&argv[1..]),
        Some("mine") => mine(&argv[1..]),
        Some("check") => check(&argv[1..]),
        Some("conditions") => conditions(&argv[1..]),
        Some("info") => info(&argv[1..]),
        Some("convert") => convert(&argv[1..]),
        Some("report") => crate::metrics::report(&argv[1..]),
        Some(other) => Err(format!("unknown command `{other}`; see `procmine help`").into()),
    }
}

/// Guesses a log format from a file extension; unknown extensions fall
/// back to flowmark.
fn format_from_extension(path: &str) -> &'static str {
    match std::path::Path::new(path)
        .extension()
        .and_then(|e| e.to_str())
        .map(str::to_ascii_lowercase)
        .as_deref()
    {
        Some("xes") => "xes",
        Some("jsonl") => "jsonl",
        Some("seqs") | Some("txt") => "seqs",
        _ => "flowmark",
    }
}

fn convert(argv: &[String]) -> CliResult {
    let p = parse(argv, &["from", "to"], &[])?;
    let [input, output] = p.positional() else {
        return Err(ArgError::Required("IN and OUT arguments").into());
    };
    let from = p
        .get("from")
        .unwrap_or_else(|| format_from_extension(input));
    let to = p.get("to").unwrap_or_else(|| format_from_extension(output));
    let log = read_log(input, from)?;
    write_log(&log, Some(output), to)?;
    errln!(
        "converted {} executions: {input} ({from}) -> {output} ({to})",
        log.len()
    );
    Ok(())
}

fn read_log(path: &str, format: &str) -> Result<WorkflowLog, Box<dyn Error>> {
    // An un-configured session supplies the no-op tracer and registry.
    let session = MineSession::new();
    read_log_with(
        path,
        format,
        RecoveryPolicy::Strict,
        &mut IngestStats::default(),
        session.tracer(),
        session.obs(),
        1,
    )
}

/// What a stats report says about reading the input: the codec
/// tallies, the ingest report and, for a batch read, the decode's
/// wall time.
#[derive(Default)]
struct IngestStats {
    codec: CodecStats,
    report: IngestReport,
    /// The batch decode interval, the one its `ingest.<format>` span
    /// and `procmine_ingest_duration_ns` sample record. `None` under
    /// `--follow`, where decoding interleaves with mining.
    nanos: Option<u64>,
}

fn read_log_with(
    path: &str,
    format: &str,
    policy: RecoveryPolicy,
    ingest: &mut IngestStats,
    tracer: &Tracer,
    reg: &Registry,
    threads: usize,
) -> Result<WorkflowLog, Box<dyn Error>> {
    // Span names are static, so map the format up front (codecs live in
    // `procmine-log`, which cannot depend on core — the ingest spans
    // and per-format metrics are recorded here at the CLI layer
    // instead).
    let span_name = match format {
        "flowmark" => "ingest.flowmark",
        "seqs" => "ingest.seqs",
        "jsonl" => "ingest.jsonl",
        "xes" => "ingest.xes",
        other => return Err(format!("unknown log format `{other}`").into()),
    };
    let IngestStats {
        codec: stats,
        report,
        nanos,
    } = ingest;
    let (bytes_before, events_before) = (stats.bytes_read, stats.events_parsed);
    // The stats report always carries the ingest time, so the clock is
    // read whatever the trace and registry views say.
    let clock = StageClock::start(
        tracer,
        span_name,
        "codec",
        reg.histogram(
            "procmine_ingest_duration_ns",
            "Wall-clock time spent decoding one input log, in nanoseconds.",
            &[("format", format)],
        ),
        true,
    );
    let reader = BufReader::new(File::open(path)?);
    let log = match format {
        "flowmark" => codec::flowmark::read_log_with(reader, policy, stats, report)?,
        "seqs" => codec::seqs::read_log_with(reader, policy, stats, report)?,
        "jsonl" => codec::jsonl::read_log_with(reader, policy, stats, report)?,
        // The XES decoder can split the document at trace boundaries
        // and parse chunks in parallel; the session's thread count is
        // threaded through here like the ingest spans.
        "xes" if threads > 1 => {
            codec::xes::read_log_with_threads(reader, policy, threads, stats, report)?
        }
        "xes" => codec::xes::read_log_with(reader, policy, stats, report)?,
        other => return Err(format!("unknown log format `{other}`").into()),
    };
    *nanos = clock.stop();
    if reg.is_enabled() {
        record_ingest(
            reg,
            format,
            stats.bytes_read - bytes_before,
            stats.events_parsed - events_before,
        );
    }
    Ok(log)
}

/// The serial session implied by `--trace FILE` / `--metrics FILE`:
/// tracing enabled when the first flag is present, the caller's
/// registry handle (from [`registry_from_args`]) shared in either way.
/// Commands attach their metrics sink (and thread count) before
/// mining.
fn session_from_args(p: &Parsed, reg: &Registry) -> MineSession {
    let session = MineSession::new().with_obs(reg.clone());
    if p.get("trace").is_some() {
        session.with_tracer(Tracer::new())
    } else {
        session
    }
}

/// Writes the collected trace as a Chrome Trace Event file when
/// `--trace FILE` was given. Call after the traced work finishes (and
/// before any verdict-driven early return, so failing runs still leave
/// a trace behind).
fn write_trace(tracer: &Tracer, p: &Parsed) -> CliResult {
    if let Some(path) = p.get("trace") {
        let mut f = BufWriter::new(File::create(path)?);
        tracer.write_chrome_json(&mut f)?;
        f.flush()?;
        errln!("wrote {path}");
    }
    Ok(())
}

/// The recovery policy implied by `--recover` / `--max-errors N`:
/// `--max-errors` bounds the decode-error budget (and implies recovery
/// on its own); bare `--recover` skips without limit.
fn ingest_policy(p: &Parsed) -> Result<RecoveryPolicy, ArgError> {
    let max_errors: Option<u64> = match p.get("max-errors") {
        None => None,
        Some(v) => Some(v.parse().map_err(|_| ArgError::BadValue {
            flag: "max-errors".to_string(),
            value: v.to_string(),
            expected: "error budget (integer)",
        })?),
    };
    Ok(match (p.has("recover"), max_errors) {
        (_, Some(max_errors)) => RecoveryPolicy::Skip { max_errors },
        (true, None) => RecoveryPolicy::BestEffort,
        (false, None) => RecoveryPolicy::Strict,
    })
}

/// Summarizes a recovering ingest on stderr (silent under `Strict`,
/// where any decode error already aborted the command).
fn report_ingest(report: &IngestReport, policy: RecoveryPolicy) {
    if policy.is_strict() {
        return;
    }
    errln!(
        "ingest: {} records parsed, {} skipped, {} decode errors",
        report.records_parsed,
        report.records_skipped,
        report.errors_total
    );
    for e in &report.errors {
        errln!("  byte {} (line {}): {}", e.byte_offset, e.line, e.message);
    }
    // `errors` can exceed `errors_total` — located assembly diagnostics
    // are retained without counting as decode errors.
    let unrecorded = (report.errors_total as usize).saturating_sub(report.errors.len());
    if unrecorded > 0 {
        errln!("  ... {unrecorded} more not recorded");
    }
}

fn write_log(log: &WorkflowLog, out: Option<&str>, format: &str) -> CliResult {
    let mut sink: Box<dyn Write> = match out {
        Some(path) => Box::new(BufWriter::new(File::create(path)?)),
        None => Box::new(std::io::stdout().lock()),
    };
    match format {
        "flowmark" => codec::flowmark::write_log(log, &mut sink)?,
        "seqs" => codec::seqs::write_log(log, &mut sink)?,
        "jsonl" => codec::jsonl::write_log(log, &mut sink)?,
        "xes" => codec::xes::write_log(log, &mut sink)?,
        other => return Err(format!("unknown log format `{other}`").into()),
    }
    sink.flush()?;
    Ok(())
}

fn preset_model(name: &str) -> Result<ProcessModel, Box<dyn Error>> {
    Ok(match name {
        "graph10" => presets::graph10(),
        "upload" => presets::upload_and_notify(),
        "stress" => presets::stress_sleep(),
        "pend" => presets::pend_block(),
        "swap" => presets::local_swap(),
        "uwi" => presets::uwi_pilot(),
        "order" => presets::order_fulfillment(),
        other => return Err(format!("unknown preset `{other}`").into()),
    })
}

fn generate(argv: &[String]) -> CliResult {
    let p = parse(
        argv,
        &[
            "preset",
            "model",
            "random-dag",
            "edge-prob",
            "executions",
            "seed",
            "engine",
            "agents",
            "duration",
            "format",
            "out",
        ],
        &[],
    )?;
    let m: usize = p.get_parse("executions", 100, "integer")?;
    let seed: u64 = p.get_parse("seed", 42, "integer")?;
    let format = p.get("format").unwrap_or("flowmark");
    let mut rng = StdRng::seed_from_u64(seed);

    let source_flags = [
        p.get("preset").is_some(),
        p.get("model").is_some(),
        p.get("random-dag").is_some(),
    ];
    if source_flags.iter().filter(|&&f| f).count() > 1 {
        return Err("--preset, --model and --random-dag are mutually exclusive".into());
    }
    let model = if let Some(name) = p.get("preset") {
        preset_model(name)?
    } else if let Some(path) = p.get("model") {
        procmine_sim::textfmt::read_model(BufReader::new(File::open(path)?))?
    } else if let Some(n) = p.get("random-dag") {
        let vertices: usize = n
            .parse()
            .map_err(|_| format!("--random-dag: `{n}` is not a vertex count"))?;
        let edge_prob: f64 = p.get_parse("edge-prob", 0.5, "probability")?;
        randdag::random_dag(
            &randdag::RandomDagConfig {
                vertices,
                edge_prob,
            },
            &mut rng,
        )?
    } else {
        presets::graph10()
    };

    let log = match p.get("engine").unwrap_or("walk") {
        "walk" => walk::random_walk_log(&model, m, &mut rng)?,
        "conditions" => {
            let agents: usize = p.get_parse("agents", 1, "integer")?;
            let duration = match p.get("duration") {
                None => engine::DurationSpec::Instant,
                Some(range) => {
                    let (lo, hi) = range
                        .split_once("..")
                        .ok_or_else(|| format!("--duration: `{range}` needs LO..HI"))?;
                    engine::DurationSpec::Uniform(
                        lo.parse()
                            .map_err(|_| format!("bad duration bound `{lo}`"))?,
                        hi.parse()
                            .map_err(|_| format!("bad duration bound `{hi}`"))?,
                    )
                }
            };
            let cfg = engine::EngineConfig { duration, agents };
            engine::generate_log_with(&model, m, &cfg, &mut rng)?
        }
        other => return Err(format!("unknown engine `{other}`").into()),
    };
    errln!(
        "generated {} executions of `{}` ({} activities, {} edges)",
        log.len(),
        model.name(),
        model.activity_count(),
        model.edge_count()
    );
    write_log(&log, p.get("out"), format)
}

/// Miner options from the shared `--threshold` / `--deadline-ms` flags.
fn miner_options(p: &Parsed) -> Result<MinerOptions, ArgError> {
    let mut opts = MinerOptions::with_threshold(p.get_parse("threshold", 1, "integer")?);
    let deadline_ms: u64 = p.get_parse("deadline-ms", 0, "integer")?;
    if deadline_ms > 0 {
        opts.limits.deadline = Some(std::time::Duration::from_millis(deadline_ms));
    }
    Ok(opts)
}

fn mine_with<S: MetricsSink>(
    p: &Parsed,
    session: &mut MineSession<S>,
    log: &WorkflowLog,
) -> Result<(MinedModel, Algorithm), Box<dyn Error>> {
    let opts = miner_options(p)?;
    // `--threads N` was validated and folded into the session by the
    // command; re-read the flag only to reject incompatible algorithms.
    let threads: usize = p.get_parse("threads", 0, "integer")?;
    if threads > 0 {
        return match p.get("algorithm").unwrap_or("auto") {
            "auto" | "general" => Ok((
                mine_general_dag_in(session, log, &opts)?,
                Algorithm::GeneralDag,
            )),
            other => Err(
                format!("--threads requires the general miner (got --algorithm {other})").into(),
            ),
        };
    }
    Ok(match p.get("algorithm").unwrap_or("auto") {
        "auto" => mine_auto_in(session, log, &opts)?,
        "special" => (
            mine_special_dag_in(session, log, &opts)?,
            Algorithm::SpecialDag,
        ),
        "general" => (
            mine_general_dag_in(session, log, &opts)?,
            Algorithm::GeneralDag,
        ),
        "cyclic" => (mine_cyclic_in(session, log, &opts)?, Algorithm::Cyclic),
        other => return Err(format!("unknown algorithm `{other}`").into()),
    })
}

/// Prints the route analytics that need only the model, shared by
/// batch and follow mining: distinct routes, the critical path and the
/// mandatory activities (acyclic models with a unique source and sink).
fn print_model_analytics(model: &MinedModel) {
    let g = model.graph();
    if let (&[source], &[sink]) = (&g.sources()[..], &g.sinks()[..]) {
        if let Ok(routes) = procmine_graph::paths::count_paths(g, source, sink) {
            outln!("distinct routes: {routes}");
        }
        if let Ok(Some(critical)) = procmine_graph::paths::longest_path(g, source, sink) {
            let names: Vec<&str> = critical.iter().map(|&v| g.node(v).as_str()).collect();
            outln!("critical path:   {}", names.join(" -> "));
        }
        let mandatory = procmine_graph::dominators::mandatory_activities(g, source, sink);
        let names: Vec<&str> = mandatory.iter().map(|&v| g.node(v).as_str()).collect();
        outln!("mandatory:       {}", names.join(", "));
    }
}

/// Writes the `--dot` / `--graphml` / `--json` model artifacts shared
/// by batch and follow mining (`--bpmn` needs the materialized log and
/// stays batch-only).
fn write_model_artifacts(p: &Parsed, model: &MinedModel) -> CliResult {
    if let Some(dot_path) = p.get("dot") {
        std::fs::write(dot_path, model.to_dot("mined"))?;
        errln!("wrote {dot_path}");
    }
    if let Some(graphml_path) = p.get("graphml") {
        let support: std::collections::HashMap<(usize, usize), u32> = model
            .edge_support()
            .iter()
            .map(|&(u, v, c)| ((u, v), c))
            .collect();
        let xml = procmine_graph::graphml::to_graphml_with(
            model.graph(),
            "mined_process",
            |_, name| name.clone(),
            |u, v| support.get(&(u.index(), v.index())).map(|&c| f64::from(c)),
        );
        std::fs::write(graphml_path, xml)?;
        errln!("wrote {graphml_path}");
    }
    if let Some(json_path) = p.get("json") {
        let f = BufWriter::new(File::create(json_path)?);
        serde_json::to_writer_pretty(f, model)?;
        errln!("wrote {json_path}");
    }
    Ok(())
}

/// One metrics record as a stats report shows it: its name, its JSON
/// fields and its table.
struct StatsRecord {
    name: &'static str,
    json_fields: String,
    table: String,
}

impl StatsRecord {
    fn of<C: Counters>(record: &C) -> Self {
        let mut json_fields = String::new();
        record.write_json_fields(&mut json_fields);
        StatsRecord {
            name: C::NAME,
            json_fields,
            table: record.render_table(),
        }
    }
}

/// The `--stats` table and the `--stats-json` file of every command
/// (batch and follow `mine`, `check`, `conditions`): the ingest
/// figures, then the `primary` record's fields at the top level, then
/// each `nested` record under its name, then the tracer's dropped-span
/// count.
fn report_stats(
    p: &Parsed,
    ingest: &IngestStats,
    tracer: &Tracer,
    primary: StatsRecord,
    nested: &[StatsRecord],
) -> CliResult {
    let codec = &ingest.codec;
    if p.has("stats") {
        outln!(
            "codec: {} bytes read, {} events parsed, {} executions parsed",
            codec.bytes_read,
            codec.events_parsed,
            codec.executions_parsed
        );
        if let Some(nanos) = ingest.nanos {
            outln!("ingest: {}", format_nanos(nanos));
        }
        for record in std::iter::once(&primary).chain(nested) {
            out!("{}", record.table);
        }
        // Silence here would read as "the trace is complete" when the
        // ring buffer wrapped.
        if tracer.dropped_spans() > 0 {
            outln!(
                "trace: {} span(s) dropped at capacity (raise the tracer buffer or trace less)",
                tracer.dropped_spans()
            );
        }
    }
    if let Some(stats_path) = p.get("stats-json") {
        let mut out = format!(
            "{{\"codec\":{},\"ingest\":{}",
            codec.to_json(),
            ingest.report.to_json()
        );
        if let Some(nanos) = ingest.nanos {
            out.push_str(&format!(",\"ingest_ns\":{nanos}"));
        }
        out.push(',');
        out.push_str(&primary.json_fields);
        for record in nested {
            out.push_str(&format!(",\"{}\":{{{}}}", record.name, record.json_fields));
        }
        out.push_str(&format!(
            ",\"trace\":{{\"dropped_spans\":{}}}}}\n",
            tracer.dropped_spans()
        ));
        std::fs::write(stats_path, out)?;
        errln!("wrote {stats_path}");
    }
    Ok(())
}

/// The consumer end of a `mine --follow` pipeline: absorbs completed
/// executions into the online miner, printing interim snapshots per
/// the `--snapshot-every` cadence. A named struct (not a closure) so
/// the pump loop can reach the miner *between* events through
/// [`CaseAssembler::observer`] — that is where checkpoint saves hook
/// in.
struct FollowDriver<'a, S: MetricsSink> {
    miner: &'a mut procmine_core::OnlineMiner,
    session: &'a mut MineSession<S>,
    skipped: &'a mut usize,
}

impl<S: MetricsSink> procmine_log::stream::Observer for FollowDriver<'_, S> {
    fn on_execution(
        &mut self,
        exec: &procmine_log::Execution,
        table: &procmine_log::ActivityTable,
    ) -> Result<(), procmine_log::stream::StreamError> {
        use procmine_log::stream::StreamError;
        match self.miner.absorb(exec, table) {
            Ok(false) => Ok(()),
            Ok(true) => {
                let snap = self
                    .miner
                    .snapshot_in(self.session)
                    .map_err(|e| StreamError::Sink(Box::new(e)))?;
                errln!(
                    "snapshot @ {} events: {} activities, {} edges ({} executions)",
                    self.miner.events_absorbed(),
                    snap.activity_count(),
                    snap.edge_count(),
                    self.miner.executions()
                );
                Ok(())
            }
            Err(e) => {
                errln!("warning: skipping case `{}`: {e}", exec.id);
                *self.skipped += 1;
                Ok(())
            }
        }
    }
}

/// State restored from a `--checkpoint` file: the resumed miner, the
/// assembler state to rebuild around a fresh observer, and the source
/// position/accounting to continue from.
type ResumeState = (
    procmine_core::OnlineMiner,
    procmine_log::stream::AssemblerState,
    procmine_core::SourceState,
);

/// Attempts to resume a follow session from `ck_path`. Returns
/// `Ok(None)` for a cold start — the file does not exist, or it is
/// corrupt and `recovering` allows discarding it. Version skew and an
/// options-fingerprint mismatch always refuse: the first is a
/// different build's format, the second would silently mix counts
/// accumulated under different mining semantics.
fn load_follow_checkpoint(
    ck_path: &str,
    log_path: &str,
    fingerprint: &procmine_core::OptionsFingerprint,
    options: &MinerOptions,
    snap_policy: procmine_core::SnapshotPolicy,
    config: procmine_log::stream::AssemblerConfig,
    recovering: bool,
) -> Result<Option<ResumeState>, Box<dyn Error>> {
    use procmine_core::{FollowCheckpoint, OnlineMiner};
    use procmine_log::stream::{CaseAssembler, CheckpointError, StreamError};
    use procmine_log::{ActivityTable, Execution};

    if !std::path::Path::new(ck_path).exists() {
        return Ok(None);
    }
    let degrade = |why: String| -> Result<Option<ResumeState>, Box<dyn Error>> {
        if recovering {
            errln!("warning: {why}; cold-starting (the checkpoint will be overwritten)");
            Ok(None)
        } else {
            Err(format!(
                "{why} (rerun with --recover to discard the checkpoint and cold-start, \
                 or delete the file)"
            )
            .into())
        }
    };
    let ck = match FollowCheckpoint::load(std::path::Path::new(ck_path)) {
        Ok(ck) => ck,
        Err(e @ CheckpointError::VersionSkew { .. }) => {
            return Err(format!(
                "cannot resume from `{ck_path}`: {e} (written by a different build; \
                 delete the file to start over)"
            )
            .into())
        }
        Err(e) => return degrade(format!("cannot resume from `{ck_path}`: {e}")),
    };
    if let Some(diff) = fingerprint.mismatch(&ck.fingerprint) {
        return Err(format!(
            "cannot resume from `{ck_path}`: options changed — {diff}; rerun with the \
             checkpoint's options, or delete the file to remine under the new ones"
        )
        .into());
    }
    let current_len = std::fs::metadata(log_path)?.len();
    if current_len < ck.source.source_len {
        return degrade(format!(
            "cannot resume from `{ck_path}`: log `{log_path}` shrank from {} to \
             {current_len} bytes since the checkpoint (truncated or rotated)",
            ck.source.source_len
        ));
    }
    let miner = match OnlineMiner::from_state(options.clone(), snap_policy, ck.miner) {
        Ok(m) => m,
        Err(e) => return degrade(format!("cannot resume from `{ck_path}`: {e}")),
    };
    // Dry-run the assembler restore so structural corruption in its
    // half of the payload also degrades here, before the pipeline is
    // wired up.
    let probe = |_: &Execution, _: &ActivityTable| Ok::<(), StreamError>(());
    if let Err(e) = CaseAssembler::resume(config, probe, ck.assembler.clone()) {
        return degrade(format!("cannot resume from `{ck_path}`: {e}"));
    }
    Ok(Some((miner, ck.assembler, ck.source)))
}

/// Saves the full pipeline state to `ck_path` atomically. `base` is
/// the source-side accounting carried over from the checkpoint this
/// session resumed from (zeroed on a cold start); the session's own
/// tallies are merged on top so the saved state is cumulative over the
/// whole stream.
#[allow(clippy::too_many_arguments)]
fn save_follow_checkpoint(
    ck_path: &str,
    log_path: &str,
    fingerprint: procmine_core::OptionsFingerprint,
    miner: &procmine_core::OnlineMiner,
    assembler_state: procmine_log::stream::AssemblerState,
    position: (u64, usize),
    base: &procmine_core::SourceState,
    session_stats: &CodecStats,
    session_report: &IngestReport,
) -> CliResult {
    let mut stats = base.stats;
    stats.merge(session_stats);
    let mut report = base.report.clone();
    report.merge(session_report);
    let ck = procmine_core::FollowCheckpoint {
        fingerprint,
        miner: miner.export_state(),
        assembler: assembler_state,
        source: procmine_core::SourceState {
            byte_offset: position.0,
            line: position.1 as u64,
            // The file can only have grown since the bytes at
            // `position` were read; clamp defensively so the invariant
            // `source_len >= byte_offset` holds even mid-rotation.
            source_len: std::fs::metadata(log_path)?.len().max(position.0),
            stats,
            report,
        },
    };
    ck.save(std::path::Path::new(ck_path))?;
    Ok(())
}

/// Runs one checkpoint save, sampling its duration into the
/// checkpoint-write histogram and counting it.
fn timed_save(
    write_ns: &Histogram,
    writes: &Counter,
    save: impl FnOnce() -> CliResult,
) -> CliResult {
    let clock = StageClock::start(
        Lane::Off,
        "checkpoint.write",
        "codec",
        write_ns.clone(),
        false,
    );
    save()?;
    clock.stop();
    writes.inc();
    Ok(())
}

/// Live-following health state sampled into the registry right before
/// each metrics export (cadenced and final). Totals accumulated
/// outside the registry (evictions, tail supervision) are synced into
/// their counters by delta so scrape-over-scrape values stay monotone.
struct FollowHealth<'a> {
    open_cases: usize,
    max_open_cases: usize,
    cases_evicted: u64,
    events_absorbed: u64,
    snapshots_taken: u64,
    snapshot_age_events: u64,
    checkpoint_age_events: Option<u64>,
    tail: Option<&'a procmine_log::stream::TailStats>,
    elapsed: std::time::Duration,
    events_total: u64,
}

fn update_follow_health(reg: &Registry, h: &FollowHealth<'_>) {
    if !reg.is_enabled() {
        return;
    }
    let sync = |name: &'static str, help: &'static str, total: u64| {
        let c = reg.counter(name, help, &[]);
        c.add(total.saturating_sub(c.value()));
    };
    reg.gauge(
        "procmine_follow_open_cases",
        "Concurrently open (incomplete) cases in the assembler window.",
        &[],
    )
    .set_u64(h.open_cases as u64);
    reg.gauge(
        "procmine_follow_open_cases_limit",
        "The --max-open-cases bound (0: unbounded).",
        &[],
    )
    .set_u64(h.max_open_cases as u64);
    reg.gauge(
        "procmine_follow_events_per_second",
        "Consumed events per wall-clock second since the session started.",
        &[],
    )
    .set(h.events_total as f64 / h.elapsed.as_secs_f64().max(1e-9));
    reg.gauge(
        "procmine_follow_snapshot_age_events",
        "Absorbed events since the last interim model snapshot.",
        &[],
    )
    .set_u64(h.snapshot_age_events);
    sync(
        "procmine_follow_cases_evicted_total",
        "Incomplete open cases evicted by the --max-open-cases window.",
        h.cases_evicted,
    );
    sync(
        "procmine_follow_events_absorbed_total",
        "Events absorbed into the online miner (completed cases only).",
        h.events_absorbed,
    );
    sync(
        "procmine_follow_snapshots_total",
        "Interim model snapshots taken.",
        h.snapshots_taken,
    );
    if let Some(age) = h.checkpoint_age_events {
        reg.gauge(
            "procmine_checkpoint_age_events",
            "Consumed events since the last checkpoint save.",
            &[],
        )
        .set_u64(age);
    }
    if let Some(tail) = h.tail {
        sync(
            "procmine_tail_retries_total",
            "Transient read errors retried by the supervised tail reader.",
            tail.retries(),
        );
        sync(
            "procmine_tail_backoff_ns_total",
            "Nanoseconds slept in tail-retry exponential backoff.",
            tail.backoff_ns(),
        );
        sync(
            "procmine_tail_empty_polls_total",
            "Empty tail polls (EOF-for-now) observed while following.",
            tail.empty_polls(),
        );
    }
}

/// `mine --follow`: online mining over a live event stream. `<LOG>` may
/// be `-` for stdin (read until EOF — the pipe case) or a file, which
/// with `--idle-ms` is tailed as it grows. Events flow through the
/// interleaved case assembler (bounded by `--max-open-cases`) into the
/// online miner; `--snapshot-every N` prints an interim model summary
/// to stderr every N absorbed events, and the final model prints to
/// stdout in the same shape as batch mining so outputs diff cleanly.
///
/// With `--checkpoint FILE` the pipeline persists its full resumable
/// state (miner counts, open cases, source position) every
/// `--checkpoint-every` consumed events and at end of stream; a later
/// run with the same flag resumes from the file instead of re-reading
/// the log. File reads are supervised: transient I/O errors retry with
/// exponential backoff (`--io-retries`), and a log that shrinks under
/// the follow surfaces as a located truncation error.
fn mine_follow(p: &Parsed) -> CliResult {
    use procmine_core::{OnlineMiner, OptionsFingerprint, SnapshotPolicy, SourceState};
    use procmine_log::stream::{
        AssemblerConfig, CaseAssembler, FlowmarkSource, RetryPolicy, StreamSink, TailReader,
    };
    use procmine_log::validate::AssemblyPolicy;
    use std::io::Seek;

    let path = p
        .positional()
        .first()
        .ok_or(ArgError::Required("log file (or - for stdin)"))?;
    if p.has("check") || p.get("bpmn").is_some() {
        return Err("--check/--bpmn need a materialized log and cannot follow a stream".into());
    }
    if p.get("threads").is_some() {
        return Err("--threads cannot be combined with --follow".into());
    }
    if p.get("format").is_some_and(|f| f != "flowmark") {
        return Err("--follow supports the flowmark format only".into());
    }
    match p.get("algorithm").unwrap_or("auto") {
        "auto" | "general" => {}
        other => {
            return Err(format!(
                "--follow uses the incremental general miner (got --algorithm {other})"
            )
            .into())
        }
    }

    let policy = ingest_policy(p)?;
    let snapshot_every: u64 = p.get_parse("snapshot-every", 0, "integer")?;
    let max_open_cases: usize = p.get_parse(
        "max-open-cases",
        procmine_log::stream::DEFAULT_OPEN_CASE_WINDOW,
        "integer",
    )?;
    let poll_ms: u64 = p.get_parse("poll-ms", 50, "integer")?;
    let idle_ms: u64 = p.get_parse("idle-ms", 0, "integer")?;
    let io_retries: u32 = p.get_parse("io-retries", 3, "integer")?;
    let checkpoint_path = p.get("checkpoint");
    let checkpoint_every: u64 = p.get_parse(
        "checkpoint-every",
        procmine_core::DEFAULT_CHECKPOINT_EVERY,
        "integer",
    )?;
    if checkpoint_path.is_none() && p.get("checkpoint-every").is_some() {
        return Err("--checkpoint-every requires --checkpoint".into());
    }
    if checkpoint_path.is_some() && *path == "-" {
        return Err("--checkpoint requires a file log (stdin has no resumable position)".into());
    }
    // Unlike --checkpoint, --metrics-every works with `-` stdin: the
    // export describes the session, not a resumable source position.
    let metrics_path = p.get("metrics");
    let metrics_every: u64 = p.get_parse("metrics-every", 0, "integer")?;
    if metrics_every > 0 && metrics_path.is_none() {
        return Err("--metrics-every requires --metrics FILE".into());
    }

    let options = miner_options(p)?;
    let snap_policy = if snapshot_every > 0 {
        SnapshotPolicy::every(snapshot_every)
    } else {
        SnapshotPolicy::on_demand()
    };
    let config = AssemblerConfig {
        max_open_cases,
        assembly: if policy.is_strict() {
            AssemblyPolicy::Strict
        } else {
            AssemblyPolicy::Lenient
        },
    };
    let fingerprint = OptionsFingerprint {
        noise_threshold: options.noise_threshold,
        max_open_cases: max_open_cases as u64,
        strict_assembly: policy.is_strict(),
    };

    // Resume decision — before the reader is even opened, so a refusal
    // costs nothing and a resume seeks straight to the saved offset.
    let resumed = match checkpoint_path {
        Some(ck_path) => load_follow_checkpoint(
            ck_path,
            path,
            &fingerprint,
            &options,
            snap_policy,
            config,
            !policy.is_strict(),
        )?,
        None => None,
    };
    let (mut miner, assembler_state, base_source) = match resumed {
        Some((miner, assembler, source)) => {
            errln!(
                "resuming from checkpoint @ byte {} ({} executions mined, {} open cases)",
                source.byte_offset,
                miner.executions(),
                assembler.open.len()
            );
            (miner, Some(assembler), source)
        }
        None => (
            OnlineMiner::new(options, snap_policy),
            None,
            SourceState::default(),
        ),
    };
    let start_offset = base_source.byte_offset;
    let start_line = base_source.line as usize;

    let reg = registry_from_args(p);
    let base = session_from_args(p, &reg);
    let tracer = base.tracer().clone();
    let mut metrics = MinerMetrics::new();
    let mut session = base.with_sink(&mut metrics);
    let started = std::time::Instant::now();

    let mut tail_stats = None;
    let reader: Box<dyn std::io::BufRead> = if *path == "-" {
        Box::new(std::io::stdin().lock())
    } else {
        // Files are always wrapped in the supervised tail reader: with
        // --idle-ms 0 the idle budget is zero (EOF stays immediate),
        // but transient-error retry and truncation detection still
        // protect the session.
        let mut f = File::open(path)?;
        if start_offset > 0 {
            f.seek(std::io::SeekFrom::Start(start_offset))?;
        }
        let tail = TailReader::new(
            f,
            std::time::Duration::from_millis(poll_ms.max(1)),
            Some(std::time::Duration::from_millis(idle_ms)),
        )
        .with_retry(RetryPolicy::with_retries(io_retries))
        .watching(path.as_str(), start_offset);
        tail_stats = Some(tail.stats());
        Box::new(BufReader::new(tail))
    };

    let mut skipped = 0usize;
    let follow_span = tracer.span_cat("stream.follow", "codec");
    let mut source = FlowmarkSource::with_origin(reader, policy, start_offset, start_line);
    let driver = FollowDriver {
        miner: &mut miner,
        session: &mut session,
        skipped: &mut skipped,
    };
    let mut assembler = match assembler_state {
        Some(state) => CaseAssembler::resume(config, driver, state)?,
        None => CaseAssembler::new(config, driver),
    };

    // Manual pump (rather than `source.pump`) so checkpoint saves can
    // run between events, where miner counts, open cases, and the
    // source position are mutually consistent. The cadence counts
    // *consumed* events — open cases included — not absorbed
    // executions: an assembler window that never overflows delivers
    // executions only at the final flush, which would mean no
    // mid-stream saves at all.
    let cadence = checkpoint_every.max(1);
    let mut events_since_save: u64 = 0;
    let mut events_total: u64 = 0;
    let mut events_since_export: u64 = 0;
    // (snapshots_taken, events_absorbed at that point) — tracks the
    // snapshot-age gauge across exports.
    let mut snap_seen = (0u64, 0u64);
    let follow_events = reg.counter(
        "procmine_follow_events_total",
        "Events consumed from the live stream (open cases included).",
        &[],
    );
    let ck_write_ns = reg.histogram(
        "procmine_checkpoint_write_duration_ns",
        "Wall-clock duration of one atomic checkpoint save, in nanoseconds.",
        &[],
    );
    let ck_writes = reg.counter(
        "procmine_checkpoint_writes_total",
        "Atomic checkpoint saves performed.",
        &[],
    );
    let pumped = (|| -> Result<(), Box<dyn Error>> {
        while let Some((event, at)) = source.next_event()? {
            assembler.on_event(event, at)?;
            follow_events.inc();
            events_total += 1;
            if let Some(ck_path) = checkpoint_path {
                events_since_save += 1;
                if events_since_save >= cadence {
                    timed_save(&ck_write_ns, &ck_writes, || {
                        save_follow_checkpoint(
                            ck_path,
                            path,
                            fingerprint,
                            assembler.observer().miner,
                            assembler.export_state(),
                            source.position(),
                            &base_source,
                            &source.stats(),
                            source.report(),
                        )
                    })?;
                    errln!("checkpoint @ byte {} -> {ck_path}", source.position().0);
                    events_since_save = 0;
                }
            }
            if metrics_every > 0 {
                events_since_export += 1;
                if events_since_export >= metrics_every {
                    if let Some(mp) = metrics_path {
                        let miner = &*assembler.observer().miner;
                        let (taken, absorbed) = (miner.snapshots_taken(), miner.events_absorbed());
                        if taken > snap_seen.0 {
                            snap_seen = (taken, absorbed);
                        }
                        update_follow_health(
                            &reg,
                            &FollowHealth {
                                open_cases: assembler.open_cases(),
                                max_open_cases,
                                cases_evicted: assembler.report().cases_evicted,
                                events_absorbed: absorbed,
                                snapshots_taken: taken,
                                snapshot_age_events: absorbed - snap_seen.1,
                                checkpoint_age_events: checkpoint_path
                                    .is_some()
                                    .then_some(events_since_save),
                                tail: tail_stats.as_deref(),
                                elapsed: started.elapsed(),
                                events_total,
                            },
                        );
                        write_metrics_atomic(&reg, mp)?;
                    }
                    events_since_export = 0;
                }
            }
        }
        assembler.finish()?;
        // A final save after the flush: a clean-exit resume continues
        // with the full counts. Cases that were still open here were
        // assembled by the flush, so a case spanning this boundary
        // opens fresh on resume (same split the memory bound forces).
        if let Some(ck_path) = checkpoint_path {
            timed_save(&ck_write_ns, &ck_writes, || {
                save_follow_checkpoint(
                    ck_path,
                    path,
                    fingerprint,
                    assembler.observer().miner,
                    assembler.export_state(),
                    source.position(),
                    &base_source,
                    &source.stats(),
                    source.report(),
                )
            })?;
            errln!(
                "checkpoint @ {} events -> {ck_path} (end of stream)",
                assembler.observer().miner.events_absorbed()
            );
        }
        Ok(())
    })();
    let mut ingest = IngestStats {
        codec: base_source.stats,
        report: base_source.report.clone(),
        nanos: None,
    };
    ingest.codec.merge(&source.stats());
    ingest.report.merge(source.report());
    ingest.report.merge(assembler.report());
    ingest.codec.executions_parsed = assembler.executions_emitted();
    // Final health refresh so the exit export reflects the end state.
    if reg.is_enabled() {
        let miner = &*assembler.observer().miner;
        let (taken, absorbed) = (miner.snapshots_taken(), miner.events_absorbed());
        if taken > snap_seen.0 {
            snap_seen = (taken, absorbed);
        }
        update_follow_health(
            &reg,
            &FollowHealth {
                open_cases: assembler.open_cases(),
                max_open_cases,
                cases_evicted: ingest.report.cases_evicted,
                events_absorbed: absorbed,
                snapshots_taken: taken,
                snapshot_age_events: absorbed - snap_seen.1,
                checkpoint_age_events: checkpoint_path.is_some().then_some(events_since_save),
                tail: tail_stats.as_deref(),
                elapsed: started.elapsed(),
                events_total,
            },
        );
    }
    drop(assembler);
    drop(follow_span);
    if let Err(e) = pumped {
        report_ingest(&ingest.report, policy);
        return Err(e);
    }
    if skipped > 0 {
        errln!("followed with {skipped} case(s) skipped");
    }
    if ingest.report.cases_evicted > 0 {
        errln!(
            "warning: {} incomplete open case(s) evicted by the --max-open-cases {} window",
            ingest.report.cases_evicted,
            max_open_cases
        );
    }

    let executions = miner.executions();
    let model = miner.snapshot_in(&mut session)?;
    drop(session);
    report_ingest(&ingest.report, policy);
    let elapsed = started.elapsed();

    outln!(
        "mined `{path}` with {:?}: {} activities, {} edges ({} executions, {:.3}s)",
        Algorithm::GeneralDag,
        model.activity_count(),
        model.edge_count(),
        executions,
        elapsed.as_secs_f64()
    );
    for (u, v) in model.edges_named() {
        outln!("  {u} -> {v}");
    }
    print_model_analytics(&model);

    write_model_artifacts(p, &model)?;
    report_stats(p, &ingest, &tracer, StatsRecord::of(&metrics), &[])?;
    write_trace(&tracer, p)?;
    write_metrics(&reg, p)?;
    Ok(())
}

fn mine(argv: &[String]) -> CliResult {
    let p = parse(
        argv,
        &[
            "format",
            "algorithm",
            "threshold",
            "threads",
            "dot",
            "graphml",
            "json",
            "bpmn",
            "stats-json",
            "max-errors",
            "deadline-ms",
            "trace",
            "snapshot-every",
            "max-open-cases",
            "poll-ms",
            "idle-ms",
            "checkpoint",
            "checkpoint-every",
            "io-retries",
            "metrics",
            "metrics-every",
        ],
        &["check", "stats", "recover", "follow"],
    )?;
    if p.has("follow") {
        return mine_follow(&p);
    }
    for follow_only in [
        "snapshot-every",
        "max-open-cases",
        "poll-ms",
        "idle-ms",
        "checkpoint",
        "checkpoint-every",
        "io-retries",
        "metrics-every",
    ] {
        if p.get(follow_only).is_some() {
            return Err(format!("--{follow_only} requires --follow").into());
        }
    }
    let path = p
        .positional()
        .first()
        .ok_or(ArgError::Required("log file"))?;
    let policy = ingest_policy(&p)?;
    let threads: usize = p.get_parse("threads", 0, "integer")?;
    let reg = registry_from_args(&p);
    let base = session_from_args(&p, &reg).with_threads(threads.max(1));
    let tracer = base.tracer().clone();
    let mut ingest = IngestStats::default();
    let mut metrics = MinerMetrics::new();
    let mut session = base.with_sink(&mut metrics);
    let started = std::time::Instant::now();
    let format = p.get("format").unwrap_or("flowmark");
    let log = read_log_with(
        path,
        format,
        policy,
        &mut ingest,
        &tracer,
        &reg,
        threads.max(1),
    )?;
    let (model, algorithm) = mine_with(&p, &mut session, &log)?;
    drop(session);
    report_ingest(&ingest.report, policy);
    let elapsed = started.elapsed();

    outln!(
        "mined `{path}` with {algorithm:?}: {} activities, {} edges ({} executions, {:.3}s)",
        model.activity_count(),
        model.edge_count(),
        log.len(),
        elapsed.as_secs_f64()
    );
    for (u, v) in model.edges_named() {
        outln!("  {u} -> {v}");
    }
    print_model_analytics(&model);

    // Split/join semantics from the log's co-occurrence statistics.
    let gateways = procmine_core::splits::analyze_gateways(&model, &log);
    for gw in gateways.splits.iter() {
        outln!(
            "split at {}: {} over {{{}}}",
            gw.activity,
            gw.kind,
            gw.branches.join(", ")
        );
    }
    for gw in gateways.joins.iter() {
        outln!(
            "join at {}:  {} over {{{}}}",
            gw.activity,
            gw.kind,
            gw.branches.join(", ")
        );
    }

    write_model_artifacts(&p, &model)?;
    if let Some(bpmn_path) = p.get("bpmn") {
        std::fs::write(
            bpmn_path,
            procmine_core::bpmn::to_bpmn_xml(&model, &gateways, "mined_process"),
        )?;
        errln!("wrote {bpmn_path}");
    }
    let mut check_failed = false;
    let mut nested = Vec::new();
    if p.has("check") {
        let mut conformance_metrics = ConformanceMetrics::new();
        let mut session = MineSession::new()
            .with_tracer(tracer.clone())
            .with_obs(reg.clone())
            .with_sink(&mut conformance_metrics);
        let report = conformance::check_conformance_in(&mut session, &model, &log);
        drop(session);
        nested.push(StatsRecord::of(&conformance_metrics));
        if report.is_conformal() {
            outln!("conformance: OK (dependency-complete, irredundant, execution-complete)");
        } else {
            outln!("conformance: FAILED");
            for (u, v) in &report.missing_dependencies {
                outln!("  missing dependency: {u} -> {v}");
            }
            for (u, v) in &report.spurious_dependencies {
                outln!("  spurious dependency: {u} -> {v}");
            }
            for (exec, violations) in &report.inconsistent_executions {
                outln!("  inconsistent execution {exec}: {violations:?}");
            }
            for activity in &report.unknown_activities {
                outln!("  unknown activity: {activity}");
            }
            check_failed = true;
        }
    }
    report_stats(&p, &ingest, &tracer, StatsRecord::of(&metrics), &nested)?;
    write_trace(&tracer, &p)?;
    write_metrics(&reg, &p)?;
    if check_failed {
        return Err("mined model is not conformal".into());
    }
    Ok(())
}

fn check(argv: &[String]) -> CliResult {
    let p = parse(
        argv,
        &["format", "stats-json", "max-errors", "trace", "metrics"],
        &["stats", "recover", "json"],
    )?;
    let [model_path, log_path] = p.positional() else {
        return Err(ArgError::Required("MODEL.json and LOG arguments").into());
    };
    let model: MinedModel = serde_json::from_reader(BufReader::new(File::open(model_path)?))?;
    let format = p.get("format").unwrap_or("flowmark");
    let policy = ingest_policy(&p)?;
    let reg = registry_from_args(&p);
    let base = session_from_args(&p, &reg);
    let tracer = base.tracer().clone();
    let mut ingest = IngestStats::default();
    let log = read_log_with(log_path, format, policy, &mut ingest, &tracer, &reg, 1)?;
    report_ingest(&ingest.report, policy);
    let mut metrics = ConformanceMetrics::new();
    let mut session = base.with_sink(&mut metrics);
    let report = conformance::check_conformance_in(&mut session, &model, &log);
    drop(session);
    report_stats(&p, &ingest, &tracer, StatsRecord::of(&metrics), &[])?;
    write_trace(&tracer, &p)?;
    write_metrics(&reg, &p)?;
    if p.has("json") {
        // Machine-readable verdict on stdout; the exit status still
        // reflects conformality so scripts can branch either way.
        outln!("{}", report.to_json());
        return if report.is_conformal() {
            Ok(())
        } else {
            Err("model is not conformal".into())
        };
    }
    if report.is_conformal() {
        outln!("conformal: model satisfies Definition 7 for this log");
        Ok(())
    } else {
        outln!(
            "not conformal: {} missing, {} spurious, {} inconsistent executions, {} unknown activities",
            report.missing_dependencies.len(),
            report.spurious_dependencies.len(),
            report.inconsistent_executions.len(),
            report.unknown_activities.len()
        );
        for activity in &report.unknown_activities {
            outln!("  unknown activity: {activity}");
        }
        Err("model is not conformal".into())
    }
}

fn conditions(argv: &[String]) -> CliResult {
    let p = parse(
        argv,
        &[
            "format",
            "threshold",
            "max-depth",
            "stats-json",
            "max-errors",
            "deadline-ms",
            "trace",
            "metrics",
        ],
        &["stats", "recover"],
    )?;
    let path = p
        .positional()
        .first()
        .ok_or(ArgError::Required("log file"))?;
    let policy = ingest_policy(&p)?;
    let reg = registry_from_args(&p);
    let base = session_from_args(&p, &reg);
    let tracer = base.tracer().clone();
    let mut ingest = IngestStats::default();
    let format = p.get("format").unwrap_or("flowmark");
    let log = read_log_with(path, format, policy, &mut ingest, &tracer, &reg, 1)?;
    report_ingest(&ingest.report, policy);
    let mut miner_metrics = MinerMetrics::new();
    let mut session = base.with_sink(&mut miner_metrics);
    let (model, _) = mine_with(&p, &mut session, &log)?;
    drop(session);
    let cfg = TreeConfig {
        max_depth: p.get_parse("max-depth", 8, "integer")?,
        ..TreeConfig::default()
    };
    let mut classify_metrics = ClassifyMetrics::new();
    let mut session = MineSession::new()
        .with_tracer(tracer.clone())
        .with_obs(reg.clone())
        .with_sink(&mut classify_metrics);
    let learned = procmine_classify::learn_edge_conditions_in(&mut session, &model, &log, &cfg);
    drop(session);
    report_stats(
        &p,
        &ingest,
        &tracer,
        StatsRecord::of(&miner_metrics),
        &[StatsRecord::of(&classify_metrics)],
    )?;
    for c in &learned {
        outln!(
            "{} -> {}   [{} taken / {} not, accuracy {:.2}]",
            c.from,
            c.to,
            c.support.1,
            c.support.0,
            c.train_accuracy
        );
        if c.tree.is_none() {
            outln!("    (no outputs logged; unconditional)");
        } else if c.rules.is_empty() {
            outln!("    never taken");
        } else {
            for rule in &c.rules {
                outln!("    when {rule}");
            }
        }
    }
    write_trace(&tracer, &p)?;
    write_metrics(&reg, &p)
}

fn info(argv: &[String]) -> CliResult {
    let p = parse(argv, &["format"], &[])?;
    let path = p
        .positional()
        .first()
        .ok_or(ArgError::Required("log file"))?;
    let log = read_log(path, p.get("format").unwrap_or("flowmark"))?;
    let stats = procmine_log::stats::log_stats(&log);

    outln!("executions:  {}", stats.executions);
    outln!("activities:  {}", stats.activities);
    outln!("instances:   {}", stats.total_instances);
    outln!(
        "distinct:    {} distinct sequences",
        stats.distinct_sequences
    );
    outln!("max repeats: {}", log.max_repeats());
    outln!(
        "complete:    {} (every activity in every execution)",
        log.every_activity_in_every_execution()
    );
    outln!(
        "exec length: min {} / avg {:.1} / max {}",
        stats.min_len,
        stats.mean_len,
        stats.max_len
    );
    let names = |ids: &[procmine_log::ActivityId]| {
        ids.iter()
            .map(|&a| log.activities().name(a))
            .collect::<Vec<_>>()
            .join(", ")
    };
    outln!("starts with: {}", names(&stats.start_candidates()));
    outln!("ends with:   {}", names(&stats.end_candidates()));
    outln!("\nper-activity (executions / instances):");
    for s in &stats.per_activity {
        outln!(
            "  {:<24} {:>6} / {:<6}",
            log.activities().name(s.activity),
            s.executions,
            s.instances
        );
    }
    let variants = procmine_log::stats::variants(&log);
    outln!("\ntop variants ({} total):", variants.len());
    for v in variants.iter().take(5) {
        let names: Vec<&str> = v
            .sequence
            .iter()
            .map(|&a| log.activities().name(a))
            .collect();
        outln!(
            "  {:>4}x ({:>5.1}%)  {}",
            v.count,
            100.0 * v.count as f64 / log.len().max(1) as f64,
            names.join(" ")
        );
    }
    Ok(())
}
