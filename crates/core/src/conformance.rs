//! Conformance checking: Definitions 6 and 7 of the paper, implemented
//! independently of the miners so mined models can be *verified*, not
//! just trusted.
//!
//! * [`check_execution`] — Definition 6: is one execution consistent
//!   with a model graph? (Induced subgraph connected, endpoints are the
//!   initiating/terminating activities, everything reachable from the
//!   start, no graph dependency contradicted by the observed ordering.)
//! * [`check_conformance`] — Definition 7: is the model conformal with a
//!   whole log? (Dependency completeness + irredundancy against the
//!   [`follows`](crate::follows) relations, plus execution completeness
//!   via Definition 6.)
//!
//! For models with cycles, activities in the same strongly connected
//! component follow each other both ways and are therefore *independent*
//! (Definition 4); dependency checks skip such pairs, which generalizes
//! the paper's DAG-centric definitions the way §5 intends.
//!
//! Conformance checking exists to diagnose *foreign* logs — a log whose
//! activity table differs from the model's is the interesting case, not
//! a programming error. [`check_conformance`] therefore aligns the two
//! tables by activity name and reports unmatched names in
//! [`ConformanceReport::unknown_activities`]; [`check_execution`]
//! reports out-of-range activity ids as
//! [`Violation::UnknownActivity`]. Neither panics. Both have `*_in`
//! forms that run inside a [`MineSession`](crate::MineSession) and feed
//! its [`ConformanceMetrics`](crate::telemetry::ConformanceMetrics)
//! sink.

use crate::clock::StageClock;
use crate::follows::FollowsAnalysis;
use crate::obs::Histogram;
use crate::session::MineSession;
use crate::telemetry::{ConformanceMetrics, MetricsSink};
use crate::trace::{Lane, Tracer};
use crate::MinedModel;
use procmine_graph::{reach, scc, NodeId};
use procmine_log::{ActivityId, ActivityInstance, Execution, WorkflowLog};
use std::collections::HashMap;

/// One way an execution can fail Definition 6 against a model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// The execution contains an activity the model has no node for.
    UnknownActivity {
        /// The activity's name where known ([`check_conformance`]
        /// resolves it from the log's table), otherwise its raw id
        /// rendered as `#id` (a bare [`check_execution`] has no table
        /// to consult).
        activity: String,
    },
    /// The induced subgraph over the execution's activities is not
    /// (weakly) connected.
    NotConnected,
    /// The execution does not start at the model's initiating activity.
    WrongInitiating {
        /// The activity the execution actually started with.
        found: String,
    },
    /// The execution does not end at the model's terminating activity.
    WrongTerminating {
        /// The activity the execution actually ended with.
        found: String,
    },
    /// An activity in the execution cannot be reached from the
    /// initiating activity within the induced subgraph.
    Unreachable {
        /// The unreachable activity.
        activity: String,
    },
    /// The execution orders two activities against a model dependency.
    DependencyViolated {
        /// Dependency source (must come first per the model).
        from: String,
        /// Dependency target (observed not-after `from`).
        to: String,
    },
}

/// Checks one execution against a model graph (Definition 6). Returns
/// all violations found (empty = consistent).
///
/// The model's node ids are assumed to align with the log's activity
/// table (true for models mined from that log and for simulator ground
/// truth). Activity ids the model has no node for are reported as
/// [`Violation::UnknownActivity`] — never a panic — and the remaining
/// checks run over the known activities only.
pub fn check_execution(model: &MinedModel, exec: &Execution) -> Vec<Violation> {
    check_execution_impl(model, exec)
}

/// [`check_execution`] inside a [`MineSession`]: counts the execution,
/// its violations by variant, and the check's wall time into the
/// session's sink (see [`ConformanceMetrics`]). With a default session
/// this is the plain twin; the single-execution check records no spans.
pub fn check_execution_in<S: MetricsSink<ConformanceMetrics>>(
    session: &mut MineSession<S>,
    model: &MinedModel,
    exec: &Execution,
) -> Vec<Violation> {
    let (sink, _) = session.handles();
    let clock = StageClock::start(
        Lane::Off,
        "execution_check",
        "conformance",
        Histogram::default(),
        S::ENABLED,
    );
    let violations = check_execution_impl(model, exec);
    record_execution_check(sink, &violations);
    if let Some(nanos) = clock.stop() {
        sink.record(|m| m.check_nanos += nanos);
    }
    violations
}

/// Starts the clock of one `conformance` phase: its span on the
/// session's main lane, its duration for a [`ConformanceMetrics`]
/// timer.
fn phase_clock<'t, S: MetricsSink<ConformanceMetrics>>(
    tracer: &'t Tracer,
    name: &'static str,
) -> StageClock<'t> {
    StageClock::start(
        tracer,
        name,
        "conformance",
        Histogram::default(),
        S::ENABLED,
    )
}

/// Tallies one checked execution's violations into the sink.
fn record_execution_check<S: MetricsSink<ConformanceMetrics>>(
    sink: &mut S,
    violations: &[Violation],
) {
    if !S::ENABLED {
        return;
    }
    sink.record(|m| {
        m.executions_checked += 1;
        if violations.is_empty() {
            m.consistent_executions += 1;
        }
        for v in violations {
            match v {
                Violation::UnknownActivity { .. } => m.violations_unknown_activity += 1,
                Violation::NotConnected => m.violations_not_connected += 1,
                Violation::WrongInitiating { .. } => m.violations_wrong_initiating += 1,
                Violation::WrongTerminating { .. } => m.violations_wrong_terminating += 1,
                Violation::Unreachable { .. } => m.violations_unreachable += 1,
                Violation::DependencyViolated { .. } => m.violations_dependency += 1,
            }
        }
    });
}

fn check_execution_impl(model: &MinedModel, exec: &Execution) -> Vec<Violation> {
    let g = model.graph();
    let n = g.node_count();
    let mut violations = Vec::new();

    // Present known activities, in start order (dedup, keep first
    // occurrence). Ids the model has no node for become
    // UnknownActivity violations (one per distinct id).
    let mut present: Vec<usize> = Vec::new();
    let mut seen = vec![false; n];
    let mut unknown: Vec<usize> = Vec::new();
    for a in exec.sequence() {
        let idx = a.index();
        if idx >= n {
            if !unknown.contains(&idx) {
                unknown.push(idx);
                violations.push(Violation::UnknownActivity {
                    activity: format!("#{idx}"),
                });
            }
        } else if !seen[idx] {
            seen[idx] = true;
            present.push(idx);
        }
    }
    if present.is_empty() {
        // Nothing the model knows about; the structural checks are
        // vacuous.
        return violations;
    }

    // Induced subgraph over the present activities: Definition 6 takes
    // *all* model edges between present activities.
    let present_ids: Vec<NodeId> = present.iter().map(|&a| NodeId::new(a)).collect();
    let induced = procmine_graph::induced::induced_subgraph(g, &present_ids).graph;

    if !reach::is_weakly_connected(&induced) {
        violations.push(Violation::NotConnected);
    }

    // Endpoints: the model's initiating/terminating activities are its
    // sources/sinks. (A well-formed process model has exactly one of
    // each; we accept membership so partially-mined graphs still check.)
    // With unknown activities in the mix, the first/last *known*
    // activity stands in for the endpoints.
    let mut known = exec
        .instances()
        .iter()
        .map(|i| i.activity)
        .filter(|a| a.index() < n);
    let Some(first) = known.next() else {
        // Unreachable: `present` being non-empty means some instance
        // maps into the model; bail without endpoint checks regardless.
        return violations;
    };
    let last = known.next_back().unwrap_or(first);
    let sources = g.sources();
    let sinks = g.sinks();
    if !sources.is_empty() && !sources.contains(&NodeId::new(first.index())) {
        violations.push(Violation::WrongInitiating {
            found: model.name_of(NodeId::new(first.index())).to_string(),
        });
    }
    if !sinks.is_empty() && !sinks.contains(&NodeId::new(last.index())) {
        violations.push(Violation::WrongTerminating {
            found: model.name_of(NodeId::new(last.index())).to_string(),
        });
    }

    // Reachability from the initiating activity within the induced
    // subgraph.
    let Some(first_pos) = present.iter().position(|&a| a == first.index()) else {
        // Unreachable: `first` was selected from the known activities
        // that populated `present`.
        return violations;
    };
    let start_pos = NodeId::new(first_pos);
    let mut reachable = reach::reachable_from(&induced, start_pos);
    reachable.insert(start_pos.index());
    for (i, &a) in present.iter().enumerate() {
        if !reachable.contains(i) {
            violations.push(Violation::Unreachable {
                activity: model.name_of(NodeId::new(a)).to_string(),
            });
        }
    }

    // Dependency ordering: for each pair with a path u→v in the induced
    // subgraph but not v→u (a real dependency — mutual paths mean a
    // cycle, i.e. independence), u must terminate before v starts.
    let closure = reach::transitive_closure(&induced);
    // Whole-activity intervals within this execution.
    let mut min_start = vec![u64::MAX; n];
    let mut max_end = vec![0u64; n];
    for inst in exec.instances() {
        let a = inst.activity.index();
        if a >= n {
            continue;
        }
        min_start[a] = min_start[a].min(inst.start);
        max_end[a] = max_end[a].max(inst.end);
    }
    for (i, &u) in present.iter().enumerate() {
        for (j, &v) in present.iter().enumerate() {
            if i != j && closure.has_edge(i, j) && !closure.has_edge(j, i) {
                // u must wholly precede v.
                if max_end[u] >= min_start[v] {
                    violations.push(Violation::DependencyViolated {
                        from: model.name_of(NodeId::new(u)).to_string(),
                        to: model.name_of(NodeId::new(v)).to_string(),
                    });
                }
            }
        }
    }

    violations
}

/// The result of checking a model against a log (Definition 7).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConformanceReport {
    /// Dependencies in the log (`v` depends on `u`) with no `u→v` path
    /// in the model — failures of *dependency completeness*.
    pub missing_dependencies: Vec<(String, String)>,
    /// Independent activity pairs connected by a model path — failures
    /// of *irredundancy*.
    pub spurious_dependencies: Vec<(String, String)>,
    /// Executions that are not consistent with the model
    /// (Definition 6) — failures of *execution completeness*.
    pub inconsistent_executions: Vec<(String, Vec<Violation>)>,
    /// Activity names present in the log but absent from the model —
    /// a foreign log. The model cannot be conformal with a log it does
    /// not even cover.
    pub unknown_activities: Vec<String>,
}

impl ConformanceReport {
    /// `true` if the model is conformal with the log.
    pub fn is_conformal(&self) -> bool {
        self.missing_dependencies.is_empty()
            && self.spurious_dependencies.is_empty()
            && self.inconsistent_executions.is_empty()
            && self.unknown_activities.is_empty()
    }

    /// Renders the report as machine-readable JSON (the CLI's
    /// `check --json` output). Stable schema:
    ///
    /// ```json
    /// {
    ///   "conformal": false,
    ///   "missing_dependencies": [{"from": "A", "to": "B"}],
    ///   "spurious_dependencies": [],
    ///   "unknown_activities": ["X"],
    ///   "inconsistent_executions": [
    ///     {"execution": "e1",
    ///      "violations": [{"kind": "unreachable", "activity": "D"}]}
    ///   ]
    /// }
    /// ```
    pub fn to_json(&self) -> String {
        use crate::trace::escape;
        let pairs = |out: &mut String, list: &[(String, String)]| {
            out.push('[');
            for (i, (from, to)) in list.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"from\":\"{}\",\"to\":\"{}\"}}",
                    escape(from),
                    escape(to)
                ));
            }
            out.push(']');
        };
        let mut out = String::new();
        out.push_str(&format!("{{\"conformal\":{}", self.is_conformal()));
        out.push_str(",\"missing_dependencies\":");
        pairs(&mut out, &self.missing_dependencies);
        out.push_str(",\"spurious_dependencies\":");
        pairs(&mut out, &self.spurious_dependencies);
        out.push_str(",\"unknown_activities\":[");
        for (i, name) in self.unknown_activities.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\"", escape(name)));
        }
        out.push_str("],\"inconsistent_executions\":[");
        for (i, (exec, violations)) in self.inconsistent_executions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"execution\":\"{}\",\"violations\":[",
                escape(exec)
            ));
            for (j, v) in violations.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&v.to_json());
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

impl Violation {
    /// One violation as a JSON object with a discriminating `kind` field.
    fn to_json(&self) -> String {
        use crate::trace::escape;
        match self {
            Violation::UnknownActivity { activity } => format!(
                "{{\"kind\":\"unknown_activity\",\"activity\":\"{}\"}}",
                escape(activity)
            ),
            Violation::NotConnected => "{\"kind\":\"not_connected\"}".to_string(),
            Violation::WrongInitiating { found } => format!(
                "{{\"kind\":\"wrong_initiating\",\"found\":\"{}\"}}",
                escape(found)
            ),
            Violation::WrongTerminating { found } => format!(
                "{{\"kind\":\"wrong_terminating\",\"found\":\"{}\"}}",
                escape(found)
            ),
            Violation::Unreachable { activity } => format!(
                "{{\"kind\":\"unreachable\",\"activity\":\"{}\"}}",
                escape(activity)
            ),
            Violation::DependencyViolated { from, to } => format!(
                "{{\"kind\":\"dependency_violated\",\"from\":\"{}\",\"to\":\"{}\"}}",
                escape(from),
                escape(to)
            ),
        }
    }
}

/// Checks a model against a log for all three conformal-graph properties
/// (Definition 7).
///
/// The log's activity table is aligned to the model's nodes *by name*:
/// a model mined from this log shares the table outright (the identity
/// map, no overhead), while a foreign log may order activities
/// differently or mention activities the model has no node for. The
/// latter are reported in [`ConformanceReport::unknown_activities`];
/// executions and dependencies involving them are checked over the
/// known activities. This never panics.
pub fn check_conformance(model: &MinedModel, log: &WorkflowLog) -> ConformanceReport {
    check_conformance_in(&mut MineSession::new(), model, log)
}

/// [`check_conformance`] inside a [`MineSession`]: records the
/// closure/SCC/check timers and the report-level counters into the
/// session's sink (see [`ConformanceMetrics`]), and spans for the
/// closure, SCC and per-execution phases into its tracer (see
/// [`crate::trace`]). With a default session this is the plain twin.
pub fn check_conformance_in<S: MetricsSink<ConformanceMetrics>>(
    session: &mut MineSession<S>,
    model: &MinedModel,
    log: &WorkflowLog,
) -> ConformanceReport {
    let (sink, tracer) = session.handles();
    let _root = tracer.span_cat("check_conformance", "conformance");
    let g = model.graph();
    let n = g.node_count();
    let follows = FollowsAnalysis::analyze(log);
    let n_log = follows.activity_count();

    // Align the log's activity table to the model's nodes by name. A
    // model mined from this log shares the table, so the map is the
    // identity and executions can be checked without remapping.
    let node_by_name: HashMap<&str, usize> = (0..n)
        .map(|i| (g.node(NodeId::new(i)).as_str(), i))
        .collect();
    let log_names = log.activities().names();
    let map: Vec<Option<usize>> = log_names
        .iter()
        .map(|name| node_by_name.get(name.as_str()).copied())
        .collect();
    let identity = map.iter().enumerate().all(|(i, &m)| m == Some(i));

    let mut report = ConformanceReport::default();
    for (i, m) in map.iter().enumerate() {
        if m.is_none() {
            report.unknown_activities.push(log_names[i].clone());
        }
    }

    let clock = phase_clock::<S>(tracer, "closure");
    let closure = reach::transitive_closure(g);
    if let Some(nanos) = clock.stop() {
        sink.record(|m| m.closure_nanos += nanos);
    }
    let clock = phase_clock::<S>(tracer, "scc");
    let sccs = scc::tarjan_scc(g);
    if let Some(nanos) = clock.stop() {
        sink.record(|m| m.scc_nanos += nanos);
    }

    let deps_span = tracer.span_cat("dependency_checks", "conformance");
    for u in 0..n_log {
        for v in 0..n_log {
            if u == v {
                continue;
            }
            match (map[u], map[v]) {
                (Some(mu), Some(mv)) => {
                    let path = closure.has_edge(mu, mv);
                    let same_cycle = sccs.same_component(NodeId::new(mu), NodeId::new(mv));
                    if follows.depends(u, v) && !path {
                        report
                            .missing_dependencies
                            .push((log_names[u].clone(), log_names[v].clone()));
                    }
                    if follows.independent(u, v) && path && !same_cycle {
                        report
                            .spurious_dependencies
                            .push((log_names[u].clone(), log_names[v].clone()));
                    }
                }
                _ => {
                    // A dependency touching an activity the model lacks
                    // can never be a model path.
                    if follows.depends(u, v) {
                        report
                            .missing_dependencies
                            .push((log_names[u].clone(), log_names[v].clone()));
                    }
                }
            }
        }
    }
    drop(deps_span);

    let clock = phase_clock::<S>(tracer, "execution_checks");
    for exec in log.executions() {
        let violations = if identity {
            check_execution_impl(model, exec)
        } else {
            check_foreign_execution(model, exec, &map, log_names)
        };
        record_execution_check(sink, &violations);
        if !violations.is_empty() {
            report
                .inconsistent_executions
                .push((exec.id.clone(), violations));
        }
    }
    if let Some(nanos) = clock.stop() {
        sink.record(|m| m.check_nanos += nanos);
    }

    if S::ENABLED {
        let missing = report.missing_dependencies.len() as u64;
        let spurious = report.spurious_dependencies.len() as u64;
        let unknown = report.unknown_activities.len() as u64;
        sink.record(|m| {
            m.missing_dependencies += missing;
            m.spurious_dependencies += spurious;
            m.unknown_activities += unknown;
        });
    }
    report
}

/// Definition 6 for an execution whose activity ids live in a foreign
/// table: remap instances onto model node ids via `map` (log activity
/// index → model node), report unmapped activities by their log name,
/// and run the plain check over what remains.
fn check_foreign_execution(
    model: &MinedModel,
    exec: &Execution,
    map: &[Option<usize>],
    log_names: &[String],
) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut unknown_seen: Vec<usize> = Vec::new();
    let mut mapped: Vec<ActivityInstance> = Vec::new();
    for inst in exec.instances() {
        let idx = inst.activity.index();
        match map.get(idx).copied().flatten() {
            Some(node) => {
                let mut remapped = inst.clone();
                remapped.activity = ActivityId::from_index(node);
                mapped.push(remapped);
            }
            None => {
                if !unknown_seen.contains(&idx) {
                    unknown_seen.push(idx);
                    let activity = log_names
                        .get(idx)
                        .cloned()
                        .unwrap_or_else(|| format!("#{idx}"));
                    violations.push(Violation::UnknownActivity { activity });
                }
            }
        }
    }
    if mapped.is_empty() {
        return violations;
    }
    // Infallible: `mapped` is non-empty (checked above) and remapping
    // changes only activity ids, never the validated intervals.
    #[allow(clippy::expect_used)]
    let remapped = Execution::new(exec.id.clone(), mapped)
        .expect("remapping preserves the original execution's validated intervals");
    violations.extend(check_execution_impl(model, &remapped));
    violations
}

/// Aggregate *fitness* of a log against a model: the fraction of
/// executions that are consistent (Definition 6), with a per-violation
/// breakdown. This is the replay-fitness notion process-mining practice
/// uses to score a purported model against reality — the paper's
/// "evaluation of the workflow system by comparing the synthesized
/// process graphs with purported graphs" application.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Fitness {
    /// Total executions checked.
    pub executions: usize,
    /// Executions with no violations.
    pub consistent: usize,
    /// Count of [`Violation::NotConnected`].
    pub not_connected: usize,
    /// Count of wrong initiating/terminating endpoints.
    pub wrong_endpoints: usize,
    /// Count of [`Violation::Unreachable`].
    pub unreachable: usize,
    /// Count of [`Violation::DependencyViolated`].
    pub dependency_violated: usize,
    /// Count of [`Violation::UnknownActivity`].
    pub unknown_activity: usize,
}

impl Fitness {
    /// Fraction of consistent executions (1.0 for an empty log).
    pub fn fraction(&self) -> f64 {
        if self.executions == 0 {
            1.0
        } else {
            self.consistent as f64 / self.executions as f64
        }
    }
}

/// Computes the replay fitness of `log` against `model`.
pub fn fitness(model: &MinedModel, log: &WorkflowLog) -> Fitness {
    let mut f = Fitness {
        executions: log.len(),
        ..Fitness::default()
    };
    for exec in log.executions() {
        let violations = check_execution(model, exec);
        if violations.is_empty() {
            f.consistent += 1;
        }
        for v in violations {
            match v {
                Violation::NotConnected => f.not_connected += 1,
                Violation::WrongInitiating { .. } | Violation::WrongTerminating { .. } => {
                    f.wrong_endpoints += 1
                }
                Violation::Unreachable { .. } => f.unreachable += 1,
                Violation::DependencyViolated { .. } => f.dependency_violated += 1,
                Violation::UnknownActivity { .. } => f.unknown_activity += 1,
            }
        }
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{mine_general_dag, mine_special_dag, MinerOptions};
    use procmine_graph::DiGraph;

    /// Figure 1 of the paper: A→B, A→C, B→E, C→D, C→E, D→E.
    fn figure1() -> (MinedModel, WorkflowLog) {
        // Build a log over A..E so activity ids are 0..5 in this order.
        let log = WorkflowLog::from_strings(["ABCDE"]).unwrap();
        let g = DiGraph::from_edges(
            vec!["A".into(), "B".into(), "C".into(), "D".into(), "E".into()],
            [(0, 1), (0, 2), (1, 4), (2, 3), (2, 4), (3, 4)],
        );
        (MinedModel::from_graph(g), log)
    }

    fn exec_of(log: &WorkflowLog, s: &str) -> Execution {
        let ids: Vec<_> = s
            .chars()
            .map(|c| log.activities().id(&c.to_string()).unwrap())
            .collect();
        Execution::from_ids(s, &ids).unwrap()
    }

    #[test]
    fn paper_example_4_consistent() {
        // ACBE is consistent with Figure 1.
        let (model, log) = figure1();
        let exec = exec_of(&log, "ACBE");
        assert_eq!(check_execution(&model, &exec), vec![]);
    }

    #[test]
    fn paper_example_4_inconsistent() {
        // ADBE is not: D is unreachable from A in the induced subgraph
        // (its only incoming edge comes from the absent C).
        let (model, log) = figure1();
        let exec = exec_of(&log, "ADBE");
        let violations = check_execution(&model, &exec);
        assert!(
            violations
                .iter()
                .any(|v| matches!(v, Violation::Unreachable { activity } if activity == "D")),
            "got {violations:?}"
        );
    }

    #[test]
    fn dependency_order_violation_detected() {
        let (model, log) = figure1();
        // B before A contradicts A→B.
        let exec = exec_of(&log, "BACDE");
        let violations = check_execution(&model, &exec);
        assert!(violations.iter().any(
            |v| matches!(v, Violation::DependencyViolated { from, to } if from == "A" && to == "B")
        ));
        assert!(violations
            .iter()
            .any(|v| matches!(v, Violation::WrongInitiating { found } if found == "B")));
    }

    #[test]
    fn wrong_terminating_detected() {
        let (model, log) = figure1();
        let exec = exec_of(&log, "ABCD");
        let violations = check_execution(&model, &exec);
        assert!(violations
            .iter()
            .any(|v| matches!(v, Violation::WrongTerminating { found } if found == "D")));
    }

    #[test]
    fn mined_special_models_are_conformal() {
        let log = WorkflowLog::from_strings(["ABCDE", "ACDBE", "ACBDE"]).unwrap();
        let model = mine_special_dag(&log, &MinerOptions::default()).unwrap();
        let report = check_conformance(&model, &log);
        assert!(report.is_conformal(), "{report:?}");
    }

    #[test]
    fn mined_general_models_are_conformal() {
        for strings in [
            vec!["ABCF", "ACDF", "ADEF", "AECF"],
            vec!["ADCE", "ABCDE"],
            vec!["ACF", "ADCF", "ABCF", "ADECF"],
            vec!["ABCD", "ACD"],
        ] {
            let log = WorkflowLog::from_strings(strings.clone()).unwrap();
            let model = mine_general_dag(&log, &MinerOptions::default()).unwrap();
            let report = check_conformance(&model, &log);
            assert!(report.is_conformal(), "log {strings:?}: {report:?}");
        }
    }

    #[test]
    fn missing_dependency_reported() {
        // Log forces A→B dependency; an edgeless model misses it.
        let log = WorkflowLog::from_strings(["AB", "AB"]).unwrap();
        let g = DiGraph::from_edges(vec!["A".into(), "B".into()], std::iter::empty());
        let model = MinedModel::from_graph(g);
        let report = check_conformance(&model, &log);
        assert!(report
            .missing_dependencies
            .contains(&("A".to_string(), "B".to_string())));
        assert!(!report.is_conformal());
    }

    #[test]
    fn spurious_dependency_reported() {
        // B and C appear in both orders → independent; a model chaining
        // B→C introduces a spurious dependency.
        let log = WorkflowLog::from_strings(["ABCD", "ACBD"]).unwrap();
        let g = DiGraph::from_edges(
            vec!["A".into(), "B".into(), "C".into(), "D".into()],
            [(0, 1), (1, 2), (2, 3)],
        );
        let model = MinedModel::from_graph(g);
        let report = check_conformance(&model, &log);
        assert!(report
            .spurious_dependencies
            .contains(&("B".to_string(), "C".to_string())));
    }

    #[test]
    fn figure2_second_graph_fails_execution_completeness() {
        // Example 5: log {ADCE, ABCDE}; the second Figure-2 graph chains
        // … C→D …, forbidding ADCE (D before C).
        let log = WorkflowLog::from_strings(["ADCE", "ABCDE"]).unwrap();
        // Activity order in table: A,D,C,E,B → indices A=0,D=1,C=2,E=3,B=4.
        // Second graph of Figure 2: A→B, B→C, A→D? Paper's second graph:
        // A→B→C→D→E with D reachable only after C. Build edges by name.
        let names: Vec<String> = log.activities().names().to_vec();
        let idx = |s: &str| log.activities().id(s).unwrap().index();
        let g = DiGraph::from_edges(
            names,
            [
                (idx("A"), idx("B")),
                (idx("A"), idx("D")),
                (idx("B"), idx("C")),
                (idx("D"), idx("C")),
                (idx("C"), idx("E")),
                (idx("C"), idx("D")),
            ],
        );
        // This graph has both C→D and D→C — a cycle — so instead test
        // the straightforward inconsistent model: A→B→C→D→E chain.
        drop(g);
        let names: Vec<String> = log.activities().names().to_vec();
        let chain = DiGraph::from_edges(
            names,
            [
                (idx("A"), idx("B")),
                (idx("B"), idx("C")),
                (idx("C"), idx("D")),
                (idx("D"), idx("E")),
            ],
        );
        let model = MinedModel::from_graph(chain);
        let report = check_conformance(&model, &log);
        assert!(!report.is_conformal());
        assert!(!report.inconsistent_executions.is_empty());
    }

    #[test]
    fn fitness_counts_violation_kinds() {
        let (model, log) = figure1();
        let mut mixed = WorkflowLog::with_activities(log.activities().clone());
        mixed.push(exec_of(&log, "ACBE")); // consistent
        mixed.push(exec_of(&log, "ABCDE")); // consistent (full)
        mixed.push(exec_of(&log, "ADBE")); // D unreachable
        mixed.push(exec_of(&log, "BACDE")); // wrong start + dependency

        let f = fitness(&model, &mixed);
        assert_eq!(f.executions, 4);
        assert_eq!(f.consistent, 2);
        assert_eq!(f.fraction(), 0.5);
        // ADBE: D unreachable from A. BACDE: reachability is taken from
        // the observed first activity B, so A, C, D all count.
        assert_eq!(f.unreachable, 4);
        assert!(f.wrong_endpoints >= 1);
        assert!(f.dependency_violated >= 1);
    }

    #[test]
    fn fitness_of_empty_log_is_one() {
        let (model, _) = figure1();
        let empty = WorkflowLog::new();
        // An empty log over a different table: check_execution is never
        // called, so the table mismatch is irrelevant.
        let f = fitness(&model, &empty);
        assert_eq!(f.fraction(), 1.0);
    }

    #[test]
    fn not_connected_detected() {
        // B and D share no edge in Figure 1: the induced subgraph over
        // {B, D} has two components.
        let (model, log) = figure1();
        let exec = exec_of(&log, "BD");
        let violations = check_execution(&model, &exec);
        assert!(
            violations.contains(&Violation::NotConnected),
            "{violations:?}"
        );
    }

    #[test]
    fn unknown_activity_id_reported_not_panicked() {
        // The execution's table has an F (id 5) the 5-node model lacks.
        let (model, _) = figure1();
        let log = WorkflowLog::from_strings(["ABCDEF"]).unwrap();
        let exec = exec_of(&log, "ABCDEF");
        let violations = check_execution(&model, &exec);
        assert_eq!(
            violations,
            vec![Violation::UnknownActivity {
                activity: "#5".to_string()
            }],
            "the known prefix ABCDE is consistent; only F is foreign"
        );
    }

    #[test]
    fn execution_of_only_unknown_activities_is_inconsistent_not_fatal() {
        let log = WorkflowLog::from_strings(["AB"]).unwrap();
        let model = mine_special_dag(&log, &MinerOptions::default()).unwrap();
        let foreign = WorkflowLog::from_strings(["XY"]).unwrap();
        let report = check_conformance(&model, &foreign);
        assert_eq!(
            report.unknown_activities,
            vec!["X".to_string(), "Y".to_string()]
        );
        assert_eq!(report.inconsistent_executions.len(), 1);
        assert!(!report.is_conformal());
    }

    #[test]
    fn foreign_table_does_not_panic_check_conformance() {
        // Log mentions an X the model has never heard of, alongside
        // known activities.
        let (model, _) = figure1();
        let foreign = WorkflowLog::from_strings(["AXB", "AXB"]).unwrap();
        let report = check_conformance(&model, &foreign);
        assert!(report.unknown_activities.contains(&"X".to_string()));
        assert!(!report.is_conformal());
        // The dependency A→X can never be a path in a model without X.
        assert!(report
            .missing_dependencies
            .contains(&("A".to_string(), "X".to_string())));
        // Every execution contains the unknown X.
        assert_eq!(report.inconsistent_executions.len(), 2);
        for (_, violations) in &report.inconsistent_executions {
            assert!(violations
                .iter()
                .any(|v| matches!(v, Violation::UnknownActivity { activity } if activity == "X")));
        }
    }

    #[test]
    fn smaller_foreign_table_checks_known_subset() {
        // n_log < n: the old assert would have aborted here.
        let (model, _) = figure1();
        let small = WorkflowLog::from_strings(["AB"]).unwrap();
        let report = check_conformance(&model, &small);
        assert!(report.unknown_activities.is_empty());
        // AB stops at B, not the model's terminating E.
        assert!(report.inconsistent_executions.iter().any(|(_, vs)| vs
            .iter()
            .any(|v| matches!(v, Violation::WrongTerminating { found } if found == "B"))));
    }

    #[test]
    fn foreign_table_aligned_by_name() {
        // Same activities, same executions, but the foreign log's table
        // interns B before A. Alignment by name keeps the model
        // conformal; the old code asserted or checked garbage ids.
        let log = WorkflowLog::from_strings(["AB", "AB"]).unwrap();
        let model = mine_special_dag(&log, &MinerOptions::default()).unwrap();
        let table = procmine_log::ActivityTable::from_names(["B", "A"]);
        let mut foreign = WorkflowLog::with_activities(table);
        let a = foreign.activities().id("A").unwrap();
        let b = foreign.activities().id("B").unwrap();
        foreign.push(Execution::from_ids("x1", &[a, b]).unwrap());
        foreign.push(Execution::from_ids("x2", &[a, b]).unwrap());
        let report = check_conformance(&model, &foreign);
        assert!(report.is_conformal(), "{report:?}");
    }

    #[test]
    fn session_conformance_matches_plain() {
        use crate::telemetry::ConformanceMetrics;
        let (model, log) = figure1();
        let mut mixed = WorkflowLog::with_activities(log.activities().clone());
        mixed.push(exec_of(&log, "ACBE")); // consistent
        mixed.push(exec_of(&log, "ADBE")); // D unreachable
        mixed.push(exec_of(&log, "BACDE")); // wrong start + dependency

        let plain = check_conformance(&model, &mixed);
        let mut metrics = ConformanceMetrics::new();
        let mut session = MineSession::new().with_sink(&mut metrics);
        let instrumented = check_conformance_in(&mut session, &model, &mixed);
        drop(session);
        assert_eq!(plain, instrumented);

        assert_eq!(metrics.executions_checked, 3);
        assert_eq!(metrics.consistent_executions, 1);
        assert!(metrics.violations_unreachable >= 1);
        assert!(metrics.violations_wrong_initiating >= 1);
        assert!(metrics.violations_dependency >= 1);
        assert_eq!(
            metrics.missing_dependencies,
            plain.missing_dependencies.len() as u64
        );
        assert_eq!(
            metrics.spurious_dependencies,
            plain.spurious_dependencies.len() as u64
        );
        assert_eq!(metrics.unknown_activities, 0);
    }

    #[test]
    fn session_conformance_counts_unknowns_on_foreign_log() {
        use crate::telemetry::ConformanceMetrics;
        let (model, _) = figure1();
        let foreign = WorkflowLog::from_strings(["AXB"]).unwrap();
        let plain = check_conformance(&model, &foreign);
        let mut metrics = ConformanceMetrics::new();
        let mut session = MineSession::new().with_sink(&mut metrics);
        let instrumented = check_conformance_in(&mut session, &model, &foreign);
        drop(session);
        assert_eq!(plain, instrumented);
        assert_eq!(metrics.unknown_activities, 1);
        assert_eq!(metrics.violations_unknown_activity, 1);
        assert_eq!(metrics.executions_checked, 1);
    }

    #[test]
    fn session_execution_check_matches_plain() {
        use crate::telemetry::ConformanceMetrics;
        let (model, log) = figure1();
        let exec = exec_of(&log, "ADBE");
        let mut metrics = ConformanceMetrics::new();
        let mut session = MineSession::new().with_sink(&mut metrics);
        assert_eq!(
            check_execution(&model, &exec),
            check_execution_in(&mut session, &model, &exec)
        );
        drop(session);
        assert_eq!(metrics.executions_checked, 1);
        assert_eq!(metrics.consistent_executions, 0);
        assert!(metrics.violations_unreachable >= 1);
    }

    #[test]
    fn fitness_counts_unknown_activities() {
        let (model, _) = figure1();
        let log = WorkflowLog::from_strings(["ABCDEF"]).unwrap();
        let f = fitness(&model, &log);
        assert_eq!(f.unknown_activity, 1);
        assert_eq!(f.consistent, 0);
    }

    #[test]
    fn report_json_is_well_formed_and_complete() {
        let (model, _) = figure1();
        let foreign = WorkflowLog::from_strings(["AXB", "AXB"]).unwrap();
        let report = check_conformance(&model, &foreign);
        let json = report.to_json();
        // Well-formed per the vendored parser, with the expected fields.
        let value: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        for expected in [
            "conformal",
            "missing_dependencies",
            "spurious_dependencies",
            "unknown_activities",
            "inconsistent_executions",
        ] {
            assert!(value.get(expected).is_some(), "missing key {expected}");
        }
        assert!(json.contains("\"conformal\":false"));
        assert!(json.contains("\"unknown_activity\""));
        assert!(json.contains("\"X\""));

        // A conformal report renders too.
        let log = WorkflowLog::from_strings(["ABCDE"]).unwrap();
        let model = mine_special_dag(&log, &MinerOptions::default()).unwrap();
        let clean = check_conformance(&model, &log).to_json();
        let _: serde_json::Value = serde_json::from_str(&clean).expect("valid JSON");
        assert!(clean.contains("\"conformal\":true"));
    }

    #[test]
    fn report_json_escapes_activity_names() {
        let report = ConformanceReport {
            unknown_activities: vec!["a\"b".to_string()],
            ..ConformanceReport::default()
        };
        let json = report.to_json();
        assert!(json.contains("a\\\"b"));
        let _: serde_json::Value =
            serde_json::from_str(&json).expect("valid JSON despite quotes in names");
    }

    #[test]
    fn cyclic_model_pairs_in_scc_not_flagged() {
        use crate::mine_cyclic;
        let log = WorkflowLog::from_strings(["ABDCE", "ABDCBCE", "ABCBDCE", "ADE"]).unwrap();
        let model = mine_cyclic(&log, &MinerOptions::default()).unwrap();
        let report = check_conformance(&model, &log);
        // B and C cycle: they are independent by Definition 4 but the
        // mutual paths must not be flagged as spurious.
        assert!(!report
            .spurious_dependencies
            .iter()
            .any(|(a, b)| (a == "B" && b == "C") || (a == "C" && b == "B")));
    }
}
