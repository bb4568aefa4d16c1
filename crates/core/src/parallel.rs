//! Parallel execution strategies for the pipeline stages. Algorithm 2's
//! two heavy passes — ordered-pair counting (step 2) and per-execution
//! transitive-reduction marking (step 5) — are embarrassingly parallel
//! over executions; this module fans them out over scoped threads with
//! per-thread accumulators merged at the join barriers, reusing the
//! serial per-execution bodies ([`count_one_execution`] /
//! [`mark_one_execution`]) so there is exactly one implementation of
//! each stage's work.
//!
//! A [`MineSession`](crate::MineSession) with `threads > 1` routes the
//! counting and marking stages through [`parallel_count`] /
//! [`parallel_mark`]; the SCC and global-transitive-reduction stages
//! additionally switch to the graph crate's parallel algorithms once
//! the vertex count reaches [`PARALLEL_GRAPH_MIN_VERTICES`]. The
//! results are identical to the serial strategy for any thread count —
//! counts merge by addition, marks by union, both order-independent.
//!
//! The paper's cost model has `m ≫ n`, so both passes are linear in the
//! number of executions; at the Table 1 scale (10 000 executions) the
//! speedup is near-linear in cores (see the `parallel_scaling` bench
//! binary).

use crate::clock::StageClock;
use crate::general_dag::{
    count_one_execution, mark_one_execution, pair_observations_range, record_arena_telemetry,
    MarkScratch, OrderObservations, VertexLog,
};
use crate::limits::Deadline;
use crate::obs::{Histogram, Registry};
use crate::session::{run_barrier, MineSession};
use crate::telemetry::{Counters, MetricsSink, MinerMetrics, Stage};
use crate::trace::Tracer;
use crate::{MineError, MinedModel, MinerOptions};
use procmine_graph::{AdjMatrix, ArenaStats};
use procmine_log::WorkflowLog;
use std::ops::Range;

/// Vertex count below which the graph-level parallel algorithms
/// (per-component SCC, row-parallel transitive reduction) are not worth
/// their spawn overhead; smaller graphs keep the serial bodies even in
/// a multi-threaded session.
pub(crate) const PARALLEL_GRAPH_MIN_VERTICES: usize = 256;

/// Parallel Algorithm 2: identical output to
/// [`mine_general_dag`](crate::mine_general_dag), with the heavy stages
/// fanned out over `threads` scoped threads. Convenience wrapper for a
/// default [`MineSession`](crate::MineSession) with
/// [`with_threads`](crate::MineSession::with_threads) set;
/// `threads == 0` is treated as 1.
pub fn mine_general_dag_parallel(
    log: &WorkflowLog,
    options: &MinerOptions,
    threads: usize,
) -> Result<MinedModel, MineError> {
    crate::general_dag::mine_general_dag_in(
        &mut MineSession::new().with_threads(threads),
        log,
        options,
    )
}

/// The fan-out/join shared by the parallel stages: splits the `execs`
/// executions into one contiguous chunk per thread and runs `work` on
/// each chunk in a scoped thread. Each worker fills its own
/// [`MinerMetrics`] (the sink never crosses a thread boundary) and
/// times itself with a [`StageClock`] whose span `worker_span` lands on
/// a private trace lane ([`Tracer::worker`], flushed when the worker
/// ends) and whose duration is credited to `stage`'s timer. At the join
/// every handle is joined even after an error, so no worker outlives
/// the scope; each result goes to `fold`, each worker's metrics merge
/// into `sink`, a worker panic is re-raised as-is, and the first worker
/// error wins.
#[allow(clippy::too_many_arguments)]
fn fan_out<S: MetricsSink, T: Send>(
    stage: Stage,
    worker_span: &'static str,
    execs: usize,
    threads: usize,
    sink: &mut S,
    tracer: &Tracer,
    work: impl Fn(Range<usize>, &mut MinerMetrics) -> Result<T, MineError> + Sync,
    mut fold: impl FnMut(T),
) -> Result<(), MineError> {
    let chunk = execs.div_ceil(threads).max(1);
    let work = &work;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..execs)
            .step_by(chunk)
            .map(|lo| {
                let range = lo..(lo + chunk).min(execs);
                scope.spawn(move || -> Result<(T, MinerMetrics), MineError> {
                    let buf = tracer.worker();
                    let clock = StageClock::start(
                        &buf,
                        worker_span,
                        "miner",
                        Histogram::default(),
                        S::ENABLED,
                    );
                    let mut lm = MinerMetrics::new();
                    let out = work(range, &mut lm)?;
                    if let Some(nanos) = clock.stop() {
                        lm.add_stage_nanos(stage, nanos);
                    }
                    Ok((out, lm))
                })
            })
            .collect();
        let mut first_err = None;
        for h in handles {
            match h.join() {
                Err(payload) => std::panic::resume_unwind(payload),
                Ok(Err(e)) => {
                    first_err.get_or_insert(e);
                }
                Ok(Ok((out, lm))) => {
                    fold(out);
                    if S::ENABLED {
                        sink.record(|m| m.merge(&lm));
                    }
                }
            }
        }
        first_err.map_or(Ok(()), Err)
    })
}

/// The parallel [`Stage::CountPairs`] strategy: per-thread count
/// matrices built by the serial [`count_one_execution`] body, merged by
/// addition at the join barrier (see [`fan_out`]). The barrier's own
/// interval is the stage's wall time, so the stage timer over the wall
/// timer is the parallel efficiency.
pub(crate) fn parallel_count<S: MetricsSink>(
    vlog: &VertexLog<'_>,
    threads: usize,
    deadline: Deadline,
    sink: &mut S,
    tracer: &Tracer,
    reg: &Registry,
) -> Result<OrderObservations, MineError> {
    let vlog = *vlog;
    let n = vlog.n;
    run_barrier(Stage::CountPairs, deadline, sink, tracer, reg, |sink| {
        let mut total = OrderObservations::new(n);
        fan_out(
            Stage::CountPairs,
            "count_pairs.worker",
            vlog.cols.exec_count(),
            threads,
            sink,
            tracer,
            |execs, lm| {
                let mut local = OrderObservations::new(n);
                for i in execs.clone() {
                    deadline.check()?;
                    count_one_execution(n, vlog.cols.exec(i), &mut local);
                }
                if S::ENABLED {
                    lm.executions_scanned = execs.len() as u64;
                    lm.pairs_counted = pair_observations_range(vlog.cols, execs.start, execs.end);
                }
                Ok(local)
            },
            |local| {
                for (t, l) in total.ordered.iter_mut().zip(local.ordered) {
                    *t += l;
                }
                for (t, l) in total.overlap.iter_mut().zip(local.overlap) {
                    *t += l;
                }
            },
        )?;
        Ok(total)
    })
}

/// The parallel [`Stage::Reduce`] strategy: per-thread marked matrices
/// built by the serial [`mark_one_execution`] body, merged by union at
/// the join barrier. Worker telemetry and tracing mirror
/// [`parallel_count`].
pub(crate) fn parallel_mark<S: MetricsSink>(
    vlog: &VertexLog<'_>,
    g: &AdjMatrix,
    threads: usize,
    deadline: Deadline,
    sink: &mut S,
    tracer: &Tracer,
    reg: &Registry,
) -> Result<AdjMatrix, MineError> {
    let vlog = *vlog;
    let n = vlog.n;
    run_barrier(Stage::Reduce, deadline, sink, tracer, reg, |sink| {
        let mut total = AdjMatrix::new(n);
        let mut arena_total = ArenaStats::default();
        fan_out(
            Stage::Reduce,
            "transitive_reduction.worker",
            vlog.cols.exec_count(),
            threads,
            sink,
            tracer,
            |execs, _| {
                let mut local = AdjMatrix::new(n);
                let mut scratch = MarkScratch::new();
                for i in execs {
                    deadline.check()?;
                    mark_one_execution(g, vlog.cols.exec(i), &mut local, &mut scratch);
                }
                Ok((local, scratch.arena_stats()))
            },
            |(local, stats)| {
                for (u, v) in local.edges() {
                    total.add_edge(u, v);
                }
                arena_total.merge(&stats);
            },
        )?;
        record_arena_telemetry(&arena_total, sink, reg);
        Ok(total)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mine_general_dag;

    fn assert_matches_serial(strings: &[&str], threads: usize) {
        let log = WorkflowLog::from_strings(strings.iter().copied()).unwrap();
        let serial = mine_general_dag(&log, &MinerOptions::default()).unwrap();
        let parallel = mine_general_dag_parallel(&log, &MinerOptions::default(), threads).unwrap();
        let mut a = serial.edges_named();
        let mut b = parallel.edges_named();
        a.sort();
        b.sort();
        assert_eq!(a, b, "threads={threads}");
        // Edge support must match too (counts merged correctly).
        let mut sa = serial.edge_support().to_vec();
        let mut sb = parallel.edge_support().to_vec();
        sa.sort();
        sb.sort();
        assert_eq!(sa, sb);
    }

    #[test]
    fn matches_serial_at_various_thread_counts() {
        let strings = ["ABCF", "ACDF", "ADEF", "AECF", "ABCF", "ACDF"];
        for threads in [0, 1, 2, 3, 8, 64] {
            assert_matches_serial(&strings, threads);
        }
    }

    #[test]
    fn matches_serial_on_larger_random_workload() {
        use procmine_sim::{randdag, walk};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(5);
        let model = randdag::random_dag(
            &randdag::RandomDagConfig {
                vertices: 20,
                edge_prob: 0.4,
            },
            &mut rng,
        )
        .unwrap();
        let log = walk::random_walk_log(&model, 500, &mut rng).unwrap();
        let serial = mine_general_dag(&log, &MinerOptions::default()).unwrap();
        let parallel = mine_general_dag_parallel(&log, &MinerOptions::default(), 4).unwrap();
        let mut a = serial.edges_named();
        let mut b = parallel.edges_named();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_bad_inputs_like_serial() {
        assert!(matches!(
            mine_general_dag_parallel(&WorkflowLog::new(), &MinerOptions::default(), 4),
            Err(MineError::EmptyLog)
        ));
        let cyclic = WorkflowLog::from_strings(["ABAB"]).unwrap();
        assert!(matches!(
            mine_general_dag_parallel(&cyclic, &MinerOptions::default(), 4),
            Err(MineError::RepeatsRequireCyclicMiner { .. })
        ));
    }

    #[test]
    fn merged_counters_equal_serial() {
        use crate::general_dag::mine_general_dag_in;
        use crate::telemetry::MinerMetrics;
        let strings = ["ABCF", "ACDF", "ADEF", "AECF", "ABCF", "ACDF"];
        let log = WorkflowLog::from_strings(strings).unwrap();
        let mut serial = MinerMetrics::new();
        let mut session = MineSession::new().with_sink(&mut serial);
        mine_general_dag_in(&mut session, &log, &MinerOptions::default()).unwrap();
        drop(session);
        for threads in [1, 2, 3, 8, 64] {
            let mut parallel = MinerMetrics::new();
            let mut session = MineSession::new()
                .with_threads(threads)
                .with_sink(&mut parallel);
            mine_general_dag_in(&mut session, &log, &MinerOptions::default()).unwrap();
            drop(session);
            assert_eq!(
                serial.counters(),
                parallel.counters(),
                "threads={threads}: per-thread metrics must merge to the serial totals"
            );
        }
    }

    #[test]
    fn wall_timers_cover_only_the_barrier_stages() {
        use crate::general_dag::mine_general_dag_in;
        use procmine_sim::{randdag, walk};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(17);
        let model = randdag::random_dag(
            &randdag::RandomDagConfig {
                vertices: 15,
                edge_prob: 0.4,
            },
            &mut rng,
        )
        .unwrap();
        let log = walk::random_walk_log(&model, 400, &mut rng).unwrap();
        let mut m = MinerMetrics::new();
        let mut session = MineSession::new().with_threads(2).with_sink(&mut m);
        mine_general_dag_in(&mut session, &log, &MinerOptions::default()).unwrap();
        drop(session);
        // The two fan-out/join barriers record wall time; serial stages
        // have no barrier and stay at zero wall.
        assert!(m.wall_nanos(Stage::CountPairs) > 0);
        assert!(m.wall_nanos(Stage::Reduce) > 0);
        assert_eq!(m.wall_nanos(Stage::Lower), 0);
        assert_eq!(m.wall_nanos(Stage::Prune), 0);
        assert_eq!(m.wall_nanos(Stage::SccRemoval), 0);
        assert_eq!(m.wall_nanos(Stage::Assemble), 0);
    }

    #[test]
    fn respects_threshold() {
        let mut strings = vec!["ABC"; 10];
        strings.push("ACB");
        let log = WorkflowLog::from_strings(strings).unwrap();
        let serial = mine_general_dag(&log, &MinerOptions::with_threshold(2)).unwrap();
        let parallel =
            mine_general_dag_parallel(&log, &MinerOptions::with_threshold(2), 3).unwrap();
        let mut a = serial.edges_named();
        let mut b = parallel.edges_named();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }
}
