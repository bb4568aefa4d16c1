//! One clock per stage: `--stats` (the metrics sink), `--trace` (the
//! tracer's spans) and `--metrics` (the registry's per-stage latency
//! histogram) must report the same interval for every timed stage, to
//! the nanosecond, for every miner, serially and with a thread pool.
//!
//! A serial stage's timer equals the sum of its main-lane spans and its
//! histogram sum. A fan-out/join (barrier) stage's wall timer equals
//! its main-lane span and its histogram sum, and its stage timer equals
//! the sum of its `*.worker` spans.

use procmine_core::conformance::check_conformance_in;
use procmine_core::{
    mine_auto_in, mine_cyclic_in, mine_general_dag, mine_general_dag_in, mine_special_dag_in,
    ConformanceMetrics, IncrementalMiner, MineError, MineSession, MinedModel, MinerMetrics,
    MinerOptions, OnlineMiner, Registry, SnapshotPolicy, SpanRecord, Stage, Tracer,
};
use procmine_log::WorkflowLog;

fn repeated(strings: &[&str], copies: usize) -> WorkflowLog {
    let all: Vec<&str> = (0..copies).flat_map(|_| strings.iter().copied()).collect();
    WorkflowLog::from_strings(all).unwrap()
}

/// Example 6 of the paper: executions skip activities (Algorithm 2).
fn general_log() -> WorkflowLog {
    repeated(&["ABCF", "ACDF", "ADEF", "AECF"], 40)
}

/// Every activity in every execution (Algorithm 1).
fn special_log() -> WorkflowLog {
    repeated(&["ABCDE", "ACBDE", "ABDCE"], 40)
}

/// Repeated activities (Algorithm 3).
fn cyclic_log() -> WorkflowLog {
    repeated(&["ABCBCD", "ABCD", "ACBD"], 40)
}

/// Runs `mine` in a session with all three views enabled and checks
/// that they agree on every stage.
fn assert_views_agree(
    what: &str,
    threads: usize,
    mine: impl FnOnce(&mut MineSession<&mut MinerMetrics>) -> Result<MinedModel, MineError>,
) {
    let mut metrics = MinerMetrics::new();
    let tracer = Tracer::new();
    let reg = Registry::new();
    let mut session = MineSession::new()
        .with_tracer(tracer.clone())
        .with_obs(reg.clone())
        .with_threads(threads)
        .with_sink(&mut metrics);
    mine(&mut session).unwrap();
    drop(session);

    let records = tracer.records();
    let sum = |spans: &[&SpanRecord]| spans.iter().map(|r| r.dur_ns).sum::<u64>();
    let mut barriers = 0;
    for stage in Stage::ALL {
        let what = format!("{what} threads={threads} stage={}", stage.name());
        let main: Vec<&SpanRecord> = records
            .iter()
            .filter(|r| r.tid == 0 && r.cat == "miner" && r.name == stage.span_name())
            .collect();
        let worker_name = format!("{}.worker", stage.span_name());
        let workers: Vec<&SpanRecord> = records.iter().filter(|r| r.name == worker_name).collect();
        let hist = reg.stage_latency(stage).snapshot();
        assert_eq!(hist.count, main.len() as u64, "{what}: one sample per span");
        assert_eq!(hist.sum, sum(&main), "{what}: histogram vs main-lane spans");
        if workers.is_empty() {
            assert_eq!(
                metrics.stage_nanos(stage),
                sum(&main),
                "{what}: stage timer"
            );
            assert_eq!(metrics.wall_nanos(stage), 0, "{what}: serial stage wall");
        } else {
            barriers += 1;
            assert_eq!(metrics.wall_nanos(stage), sum(&main), "{what}: wall timer");
            assert_eq!(
                metrics.stage_nanos(stage),
                sum(&workers),
                "{what}: stage timer vs worker spans"
            );
        }
    }
    assert!(
        records
            .iter()
            .any(|r| r.cat == "miner" && r.name == "assemble"),
        "{what}: the run was traced"
    );
    if threads == 1 {
        assert_eq!(barriers, 0, "{what}: serial runs have no barriers");
    }
}

#[test]
fn every_miner_reports_one_interval_per_stage() {
    let options = MinerOptions::default();
    let (special, general, cyclic) = (special_log(), general_log(), cyclic_log());
    for threads in [1, 2] {
        assert_views_agree("special", threads, |s| {
            mine_special_dag_in(s, &special, &options)
        });
        assert_views_agree("general", threads, |s| {
            mine_general_dag_in(s, &general, &options)
        });
        assert_views_agree("cyclic", threads, |s| mine_cyclic_in(s, &cyclic, &options));
        for log in [&special, &general, &cyclic] {
            assert_views_agree("auto", threads, |s| {
                mine_auto_in(s, log, &options).map(|(model, _)| model)
            });
        }
        assert_views_agree("incremental", threads, |s| {
            let mut miner = IncrementalMiner::new(options.clone());
            miner.absorb_log(&general)?;
            miner.model_in(s)
        });
        assert_views_agree("online", threads, |s| {
            let mut miner = OnlineMiner::new(options.clone(), SnapshotPolicy::on_demand());
            for exec in general.executions() {
                miner.absorb(exec, general.activities())?;
            }
            miner.snapshot_in(s)
        });
    }
}

#[test]
fn parallel_general_mining_times_both_barriers() {
    let log = general_log();
    let mut metrics = MinerMetrics::new();
    let tracer = Tracer::new();
    let mut session = MineSession::new()
        .with_tracer(tracer.clone())
        .with_threads(2)
        .with_sink(&mut metrics);
    mine_general_dag_in(&mut session, &log, &MinerOptions::default()).unwrap();
    drop(session);
    let records = tracer.records();
    for name in ["count_pairs.worker", "transitive_reduction.worker"] {
        assert!(records.iter().any(|r| r.name == name), "no `{name}` span");
    }
}

#[test]
fn conformance_timers_equal_their_spans() {
    let log = general_log();
    let model = mine_general_dag(&log, &MinerOptions::default()).unwrap();
    let mut metrics = ConformanceMetrics::new();
    let tracer = Tracer::new();
    let mut session = MineSession::new()
        .with_tracer(tracer.clone())
        .with_sink(&mut metrics);
    check_conformance_in(&mut session, &model, &log);
    drop(session);
    let records = tracer.records();
    let span = |name: &str| {
        let spans: Vec<&SpanRecord> = records.iter().filter(|r| r.name == name).collect();
        assert_eq!(spans.len(), 1, "one `{name}` span");
        spans[0].dur_ns
    };
    assert_eq!(metrics.closure_nanos, span("closure"));
    assert_eq!(metrics.scc_nanos, span("scc"));
    assert_eq!(metrics.check_nanos, span("execution_checks"));
    assert_eq!(metrics.executions_checked, log.len() as u64);
}
