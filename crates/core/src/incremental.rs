//! Incremental mining — the paper's *process evolution* application.
//!
//! The introduction motivates using mined models "to allow the evolution
//! of the current process model into future versions of the model by
//! incorporating feedback from successful process executions". That
//! calls for a miner that absorbs executions as they complete and can
//! produce an up-to-date model at any point without rescanning history.
//!
//! [`IncrementalMiner`] maintains the step-2 ordering counts (the
//! dominant O(n²) work per execution) across batches; requesting a
//! [`model`](IncrementalMiner::model) runs only the cheap finishing
//! steps (threshold → two-cycles → SCC → per-execution reduction) over
//! the retained executions. The activity universe may grow between
//! batches — count matrices are re-indexed on the fly.
//!
//! Like Algorithm 2, the incremental miner handles acyclic processes;
//! an execution with repeated activities is rejected (route such logs
//! to [`crate::mine_cyclic`]).

use crate::general_dag::{
    count_one_execution, finish_from_counts, pair_observations, OrderObservations, VertexLog,
};
use crate::limits::LimitKind;
use crate::model::graph_skeleton;
use crate::session::{run_stage, MineSession};
use crate::telemetry::{MetricsSink, Stage};
use crate::trace::Tracer;
use crate::{MineError, MinedModel, MinerOptions};
use procmine_graph::NodeId;
use procmine_log::{ActivityTable, EventColumns, Execution, WorkflowLog};

/// A miner that absorbs executions over time (Algorithm 2, incremental
/// step-2 counts).
#[derive(Debug, Clone)]
pub struct IncrementalMiner {
    pub(crate) options: MinerOptions,
    pub(crate) table: ActivityTable,
    /// Row-major `n × n` ordered-pair and overlap counts over the
    /// *current* table.
    pub(crate) obs: OrderObservations,
    /// Lowered executions (dense vertex, start, end) in columnar form,
    /// kept for the marking pass (steps 5–6 need the executions
    /// themselves).
    pub(crate) execs: EventColumns,
    /// Total activity instances absorbed — checked against
    /// [`crate::Limits::max_events`] before each absorb.
    pub(crate) events: u64,
}

impl IncrementalMiner {
    /// Creates an empty miner.
    pub fn new(options: MinerOptions) -> Self {
        IncrementalMiner {
            options,
            table: ActivityTable::new(),
            obs: OrderObservations::new(0),
            execs: EventColumns::new(),
            events: 0,
        }
    }

    /// Size-limit checks run *before* an absorb mutates any state, so a
    /// rejected execution leaves the miner (including its activity
    /// table) untouched. `new_names` is how many previously-unseen
    /// activities the execution would intern.
    fn check_absorb(&self, id: &str, len: usize, new_names: usize) -> Result<(), MineError> {
        let limits = &self.options.limits;
        if let Some(max) = limits.max_execution_len {
            if len > max {
                return Err(MineError::LimitExceeded {
                    kind: LimitKind::ExecutionLength,
                    details: format!("execution `{id}` has {len} activity instances (limit {max})"),
                });
            }
        }
        if let Some(max) = limits.max_activities {
            let grown = self.table.len() + new_names;
            if grown > max {
                return Err(MineError::LimitExceeded {
                    kind: LimitKind::Activities,
                    details: format!(
                        "execution `{id}` would grow the activity universe to {grown} (limit {max})"
                    ),
                });
            }
        }
        if let Some(max) = limits.max_events {
            let total = self.events + len as u64;
            if total > max {
                return Err(MineError::LimitExceeded {
                    kind: LimitKind::Events,
                    details: format!(
                        "absorbing execution `{id}` would exceed {max} total activity instances"
                    ),
                });
            }
        }
        Ok(())
    }

    /// Number of executions absorbed.
    pub fn executions(&self) -> usize {
        self.execs.exec_count()
    }

    /// The activity table accumulated so far.
    pub fn activities(&self) -> &ActivityTable {
        &self.table
    }

    /// Absorbs one execution given as an ordered list of activity
    /// names (instantaneous form). New names grow the activity universe.
    pub fn absorb_sequence<S: AsRef<str>>(&mut self, names: &[S]) -> Result<(), MineError> {
        if names.is_empty() {
            return Err(MineError::EmptyExecution {
                execution: format!("incremental-{}", self.execs.exec_count()),
            });
        }
        let mut seen = std::collections::HashSet::new();
        if names.iter().any(|n| !seen.insert(n.as_ref())) {
            return Err(MineError::RepeatsRequireCyclicMiner {
                execution: format!("incremental-{}", self.execs.exec_count()),
            });
        }
        let new_names = seen.iter().filter(|n| self.table.id(n).is_none()).count();
        self.check_absorb(
            &format!("incremental-{}", self.execs.exec_count()),
            names.len(),
            new_names,
        )?;
        let old_n = self.table.len();
        let table = &mut self.table;
        self.execs.push_exec(
            names
                .iter()
                .enumerate()
                .map(|(i, s)| (table.intern(s.as_ref()).index() as u32, i as u64, i as u64)),
        );
        self.grow_to(self.table.len(), old_n);
        let last = self.execs.exec_count() - 1;
        count_one_execution(self.table.len(), self.execs.exec(last), &mut self.obs);
        self.events += names.len() as u64;
        Ok(())
    }

    /// Absorbs an execution from a log that shares this miner's
    /// activity-name universe (ids are re-interned by name, so the
    /// source log may use a different table).
    pub fn absorb_execution(
        &mut self,
        exec: &Execution,
        source_table: &ActivityTable,
    ) -> Result<(), MineError> {
        if exec.instances().is_empty() {
            return Err(MineError::EmptyExecution {
                execution: exec.id.clone(),
            });
        }
        if exec.has_repeats() {
            return Err(MineError::RepeatsRequireCyclicMiner {
                execution: exec.id.clone(),
            });
        }
        let new_names = exec
            .instances()
            .iter()
            .filter(|i| self.table.id(source_table.name(i.activity)).is_none())
            .count();
        self.check_absorb(&exec.id, exec.len(), new_names)?;
        let old_n = self.table.len();
        let table = &mut self.table;
        self.execs.push_exec(exec.instances().iter().map(|i| {
            (
                table.intern(source_table.name(i.activity)).index() as u32,
                i.start,
                i.end,
            )
        }));
        self.grow_to(self.table.len(), old_n);
        let last = self.execs.exec_count() - 1;
        count_one_execution(self.table.len(), self.execs.exec(last), &mut self.obs);
        self.events += exec.len() as u64;
        Ok(())
    }

    /// Absorbs every execution of a log.
    pub fn absorb_log(&mut self, log: &WorkflowLog) -> Result<(), MineError> {
        for exec in log.executions() {
            self.absorb_execution(exec, log.activities())?;
        }
        Ok(())
    }

    /// Re-indexes the count matrices when the activity universe grows
    /// from `old_n` to `new_n`.
    fn grow_to(&mut self, new_n: usize, old_n: usize) {
        if new_n == old_n {
            return;
        }
        let grow = |old: &[u32]| {
            let mut grown = vec![0u32; new_n * new_n];
            for u in 0..old_n {
                grown[u * new_n..u * new_n + old_n]
                    .copy_from_slice(&old[u * old_n..u * old_n + old_n]);
            }
            grown
        };
        self.obs.ordered = grow(&self.obs.ordered);
        self.obs.overlap = grow(&self.obs.overlap);
    }

    /// Produces the current model (steps 3–7 over the retained
    /// executions). Errors if nothing has been absorbed.
    ///
    /// Snapshots borrow the retained executions — producing a model
    /// copies nothing but the count matrices.
    pub fn model(&self) -> Result<MinedModel, MineError> {
        self.model_in(&mut MineSession::new())
    }

    /// [`model`](IncrementalMiner::model) inside a [`MineSession`]: the
    /// finishing steps are timed and counted into the session's sink,
    /// recorded as spans into its tracer, and fanned out over its
    /// threads. The step-2 counting work happened at absorb time, so
    /// [`Stage::CountPairs`] stays zero here; the scanned-execution and
    /// pair totals are still reported so the counters describe the
    /// whole mining effort behind the snapshot.
    ///
    /// The deadline (the sooner of the session's and
    /// `options.limits.deadline`, the latter measured from this call)
    /// starts *before* any work and is re-checked exactly once per
    /// retained execution during the marking pass, so an expired
    /// deadline aborts the snapshot promptly even on large histories.
    pub fn model_in<S: MetricsSink>(
        &self,
        session: &mut MineSession<S>,
    ) -> Result<MinedModel, MineError> {
        let deadline = session.run_deadline(&self.options.limits);
        let threads = session.threads;
        let MineSession {
            sink,
            tracer,
            obs: reg,
            ..
        } = session;
        let tracer: &Tracer = tracer;
        let reg: &crate::obs::Registry = reg;
        let _root = tracer.span_cat("mine.incremental", "miner");
        if self.execs.is_empty() {
            return Err(MineError::EmptyLog);
        }
        deadline.check()?;
        let n = self.table.len();
        let vlog = VertexLog {
            n,
            cols: &self.execs,
        };
        if S::ENABLED {
            let scanned = self.execs.exec_count() as u64;
            let pairs = pair_observations(&self.execs);
            sink.record(|m| {
                m.executions_scanned += scanned;
                m.pairs_counted += pairs;
            });
        }
        let result = finish_from_counts(
            &vlog,
            self.obs.clone(),
            self.options.noise_threshold,
            deadline,
            threads,
            sink,
            tracer,
            reg,
        )?;
        run_stage(Stage::Assemble, deadline, sink, tracer, reg, |_| {
            let mut graph = graph_skeleton(&self.table);
            let mut support = Vec::with_capacity(result.graph.edge_count());
            for (u, v) in result.graph.edges() {
                graph.add_edge(NodeId::new(u), NodeId::new(v));
                support.push((u, v, result.counts[u * n + v]));
            }
            Ok(MinedModel::new(graph, support))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mine_general_dag;
    use crate::Limits;
    use std::time::Duration;

    #[test]
    fn matches_batch_miner() {
        let strings = ["ABCF", "ACDF", "ADEF", "AECF"];
        let log = WorkflowLog::from_strings(strings).unwrap();

        let mut inc = IncrementalMiner::new(MinerOptions::default());
        inc.absorb_log(&log).unwrap();
        let incremental = inc.model().unwrap();
        let batch = mine_general_dag(&log, &MinerOptions::default()).unwrap();

        let mut a = incremental.edges_named();
        let mut b = batch.edges_named();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn model_evolves_with_new_executions() {
        let mut inc = IncrementalMiner::new(MinerOptions::default());
        inc.absorb_sequence(&["A", "B", "C"]).unwrap();
        inc.absorb_sequence(&["A", "B", "C"]).unwrap();
        let before = inc.model().unwrap();
        assert!(before.has_edge("B", "C"));

        // New observations reverse B and C: they become independent.
        inc.absorb_sequence(&["A", "C", "B"]).unwrap();
        let after = inc.model().unwrap();
        assert!(!after.has_edge("B", "C") && !after.has_edge("C", "B"));
        assert!(after.has_edge("A", "B") && after.has_edge("A", "C"));
    }

    #[test]
    fn activity_universe_grows() {
        let mut inc = IncrementalMiner::new(MinerOptions::default());
        inc.absorb_sequence(&["A", "B"]).unwrap();
        assert_eq!(inc.activities().len(), 2);
        // A branch through new activities arrives later.
        inc.absorb_sequence(&["A", "C", "D", "B"]).unwrap();
        assert_eq!(inc.activities().len(), 4);
        let model = inc.model().unwrap();
        assert!(
            model.has_edge("A", "B"),
            "direct path still needed by exec 1"
        );
        assert!(model.has_edge("C", "D"));
        assert_eq!(model.activity_count(), 4);
    }

    #[test]
    fn count_matrix_survives_growth() {
        // Counts recorded before growth must keep their values after
        // re-indexing.
        let mut inc = IncrementalMiner::new(MinerOptions::default());
        for _ in 0..5 {
            inc.absorb_sequence(&["A", "B"]).unwrap();
        }
        inc.absorb_sequence(&["A", "X", "B"]).unwrap();
        let model = inc.model().unwrap();
        let support = model.edge_support();
        let ab = support
            .iter()
            .find(|&&(u, v, _)| {
                model.name_of(procmine_graph::NodeId::new(u)) == "A"
                    && model.name_of(procmine_graph::NodeId::new(v)) == "B"
            })
            .expect("A->B mined");
        assert_eq!(ab.2, 6, "all six observations counted");
    }

    #[test]
    fn rejects_repeats_and_empty() {
        let mut inc = IncrementalMiner::new(MinerOptions::default());
        assert!(matches!(
            inc.absorb_sequence(&["A", "B", "A"]),
            Err(MineError::RepeatsRequireCyclicMiner { .. })
        ));
        assert!(matches!(
            inc.absorb_sequence::<&str>(&[]),
            Err(MineError::EmptyExecution { .. })
        ));
        assert!(matches!(inc.model(), Err(MineError::EmptyLog)));
    }

    #[test]
    fn expired_deadline_aborts_snapshot_promptly() {
        // The snapshot deadline must start before any work and be
        // honored between retained executions, so even a large history
        // aborts on the first check rather than after a full pass.
        let mut inc = IncrementalMiner::new(MinerOptions::default());
        for i in 0..200 {
            let names: Vec<String> = (0..20).map(|a| format!("A{a}-{}", i % 3)).collect();
            inc.absorb_sequence(&names).unwrap();
        }
        let mut session = MineSession::new().with_limits(Limits {
            deadline: Some(Duration::ZERO),
            ..Limits::default()
        });
        std::thread::sleep(Duration::from_millis(2));
        let err = inc.model_in(&mut session).unwrap_err();
        assert!(matches!(
            err,
            MineError::LimitExceeded {
                kind: LimitKind::Deadline,
                ..
            }
        ));

        // An expired per-options deadline is honored the same way.
        let mut tight = IncrementalMiner::new(MinerOptions::default().with_limits(Limits {
            deadline: Some(Duration::ZERO),
            ..Limits::default()
        }));
        tight.absorb_sequence(&["A", "B", "C"]).unwrap();
        assert!(matches!(
            tight.model(),
            Err(MineError::LimitExceeded {
                kind: LimitKind::Deadline,
                ..
            })
        ));
    }

    #[test]
    fn threaded_snapshot_matches_serial() {
        let strings = ["ABCF", "ACDF", "ADEF", "AECF"];
        let log = WorkflowLog::from_strings(strings).unwrap();
        let mut inc = IncrementalMiner::new(MinerOptions::default());
        inc.absorb_log(&log).unwrap();
        let serial = inc.model().unwrap();
        let mut session = MineSession::new().with_threads(4);
        let threaded = inc.model_in(&mut session).unwrap();
        let mut a = serial.edges_named();
        let mut b = threaded.edges_named();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn absorb_from_differently_ordered_table() {
        // A log whose table interned names in another order still lands
        // on the right activities.
        let log = WorkflowLog::from_strings(["CBA"]).unwrap();
        let mut inc = IncrementalMiner::new(MinerOptions::default());
        inc.absorb_sequence(&["A", "B", "C"]).unwrap();
        inc.absorb_log(&log).unwrap();
        let model = inc.model().unwrap();
        // Both orders observed → all pairs independent.
        assert_eq!(model.edge_count(), 0);
    }
}
