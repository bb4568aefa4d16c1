//! End-to-end conditions mining: one learned condition per model edge.

use crate::telemetry::ClassifyMetrics;
use crate::{edge_training_set, rules_of, Dataset, DecisionTree, Rule, TreeConfig};
use procmine_core::{Histogram, MetricsSink, MineSession, MinedModel, StageClock};
use procmine_log::ActivityId;
use procmine_log::WorkflowLog;

/// The learned condition for one edge of a mined model.
#[derive(Debug, Clone)]
pub struct LearnedCondition {
    /// Source activity name.
    pub from: String,
    /// Target activity name.
    pub to: String,
    /// The fitted tree (`None` when the log never records an output for
    /// the source activity — nothing to learn from, as with the paper's
    /// Flowmark logs, which "do not log the input and output parameters").
    pub tree: Option<DecisionTree>,
    /// Positive rules extracted from the tree.
    pub rules: Vec<Rule>,
    /// Training accuracy of the tree (1.0 when no tree was fit).
    pub train_accuracy: f64,
    /// `(negative, positive)` training examples.
    pub support: (usize, usize),
}

impl LearnedCondition {
    /// Predicts whether the edge fires for a given source output.
    /// Without a tree, falls back to the majority class of the training
    /// support (or `true` when even that is unknown — an edge with no
    /// evidence at all behaves unconditionally).
    pub fn predict(&self, output: &[i64]) -> bool {
        match &self.tree {
            Some(t) => t.predict(output),
            None => self.support.1 >= self.support.0,
        }
    }
}

/// Learns a condition for every edge of `model` from `log` (§7).
///
/// The model's node indices must align with the log's activity table —
/// true for models mined from that log.
pub fn learn_edge_conditions(
    model: &MinedModel,
    log: &WorkflowLog,
    cfg: &TreeConfig,
) -> Vec<LearnedCondition> {
    learn_edge_conditions_in(&mut MineSession::new(), model, log, cfg)
}

/// [`learn_edge_conditions`] inside a [`MineSession`]: counts edges,
/// extracted training rows, evaluated splits, fitted trees and their
/// maximum depth, plus the end-to-end learn time, into the session's
/// sink (see [`ClassifyMetrics`]), and a `learn_conditions` span into
/// its tracer. With the default session this is the plain twin.
pub fn learn_edge_conditions_in<S: MetricsSink<ClassifyMetrics>>(
    session: &mut MineSession<S>,
    model: &MinedModel,
    log: &WorkflowLog,
    cfg: &TreeConfig,
) -> Vec<LearnedCondition> {
    let (sink, tracer) = session.handles();
    let clock = StageClock::start(
        tracer,
        "learn_conditions",
        "classify",
        Histogram::default(),
        S::ENABLED,
    );
    let mut out = Vec::with_capacity(model.edge_count());
    for (u, v) in model.graph().edges() {
        let ua = ActivityId::from_index(u.index());
        let va = ActivityId::from_index(v.index());
        let from = model.name_of(u).to_string();
        let to = model.name_of(v).to_string();
        let ds: Option<Dataset> = edge_training_set(log, ua, va);
        if S::ENABLED {
            let rows = ds.as_ref().map_or(0, |d| d.len() as u64);
            let no_outputs = u64::from(ds.is_none());
            sink.record(|m| {
                m.edges_considered += 1;
                m.rows_extracted += rows;
                m.edges_without_outputs += no_outputs;
            });
        }
        match ds {
            Some(ds) => {
                let tree = DecisionTree::fit_with(&ds, cfg, sink);
                let rules = rules_of(&tree);
                let support = (ds.len() - ds.positives(), ds.positives());
                out.push(LearnedCondition {
                    from,
                    to,
                    train_accuracy: tree.accuracy(&ds),
                    rules,
                    tree: Some(tree),
                    support,
                });
            }
            None => {
                // No outputs: count co-occurrence support only.
                let (mut neg, mut pos) = (0usize, 0usize);
                for exec in log.executions() {
                    if exec.contains(ua) {
                        if exec.contains(va) {
                            pos += 1;
                        } else {
                            neg += 1;
                        }
                    }
                }
                out.push(LearnedCondition {
                    from,
                    to,
                    tree: None,
                    rules: Vec::new(),
                    train_accuracy: 1.0,
                    support: (neg, pos),
                });
            }
        }
    }
    if let Some(nanos) = clock.stop() {
        sink.record(|m| m.learn_nanos += nanos);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use procmine_core::{mine_general_dag, MinerOptions};
    use procmine_sim::{engine, presets};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn recovers_order_fulfillment_conditions() {
        let model = presets::order_fulfillment();
        let mut rng = StdRng::seed_from_u64(2025);
        let log = engine::generate_log(&model, 400, &mut rng).unwrap();
        let mined = mine_general_dag(&log, &MinerOptions::default()).unwrap();
        let learned = learn_edge_conditions(&mined, &log, &TreeConfig::default());

        let find = |f: &str, t: &str| {
            learned
                .iter()
                .find(|c| c.from == f && c.to == t)
                .unwrap_or_else(|| panic!("no learned condition for {f}->{t}"))
        };

        // Assess → ManagerApproval fires iff amount (o[0]) > 500.
        let approval = find("Assess", "ManagerApproval");
        assert!(
            approval.train_accuracy > 0.98,
            "acc={}",
            approval.train_accuracy
        );
        assert!(approval.predict(&[800, 10]));
        assert!(!approval.predict(&[100, 10]));

        // Assess → FraudCheck fires iff risk (o[1]) > 70.
        let fraud = find("Assess", "FraudCheck");
        assert!(fraud.train_accuracy > 0.98);
        assert!(fraud.predict(&[100, 90]));
        assert!(!fraud.predict(&[100, 10]));
    }

    #[test]
    fn session_learning_matches_plain() {
        let model = presets::order_fulfillment();
        let mut rng = StdRng::seed_from_u64(7);
        let log = engine::generate_log(&model, 200, &mut rng).unwrap();
        let mined = mine_general_dag(&log, &MinerOptions::default()).unwrap();

        let plain = learn_edge_conditions(&mined, &log, &TreeConfig::default());
        let mut metrics = ClassifyMetrics::new();
        let mut session = MineSession::new().with_sink(&mut metrics);
        let instrumented =
            learn_edge_conditions_in(&mut session, &mined, &log, &TreeConfig::default());
        drop(session);

        assert_eq!(plain.len(), instrumented.len());
        let mut max_depth = 0u64;
        let mut rows = 0u64;
        for (a, b) in plain.iter().zip(&instrumented) {
            assert_eq!((&a.from, &a.to, a.support), (&b.from, &b.to, b.support));
            assert_eq!(a.train_accuracy, b.train_accuracy);
            assert_eq!(a.tree.is_some(), b.tree.is_some());
            if let Some(t) = &b.tree {
                max_depth = max_depth.max(t.depth() as u64);
                rows += (b.support.0 + b.support.1) as u64;
            }
        }

        assert_eq!(metrics.edges_considered, mined.edge_count() as u64);
        assert_eq!(
            metrics.trees_fitted + metrics.edges_without_outputs,
            metrics.edges_considered
        );
        assert_eq!(metrics.max_tree_depth, max_depth);
        assert_eq!(metrics.rows_extracted, rows);
        assert!(metrics.splits_evaluated > 0);
        assert!(metrics.learn_nanos > 0);
    }

    #[test]
    fn learn_timer_equals_its_span() {
        let model = presets::order_fulfillment();
        let mut rng = StdRng::seed_from_u64(11);
        let log = engine::generate_log(&model, 100, &mut rng).unwrap();
        let mined = mine_general_dag(&log, &MinerOptions::default()).unwrap();
        let mut metrics = ClassifyMetrics::new();
        let tracer = procmine_core::Tracer::new();
        let mut session = MineSession::new()
            .with_tracer(tracer.clone())
            .with_sink(&mut metrics);
        learn_edge_conditions_in(&mut session, &mined, &log, &TreeConfig::default());
        drop(session);
        let records = tracer.records();
        assert_eq!(records.len(), 1);
        assert_eq!(
            (records[0].name, records[0].cat),
            ("learn_conditions", "classify")
        );
        assert_eq!(metrics.learn_nanos, records[0].dur_ns);
    }

    #[test]
    fn session_counts_edges_without_outputs() {
        let log = procmine_log::WorkflowLog::from_strings(["ABC", "ABC", "AC"]).unwrap();
        let mined = mine_general_dag(&log, &MinerOptions::default()).unwrap();
        let mut metrics = ClassifyMetrics::new();
        let mut session = MineSession::new().with_sink(&mut metrics);
        learn_edge_conditions_in(&mut session, &mined, &log, &TreeConfig::default());
        drop(session);
        assert_eq!(metrics.edges_without_outputs, metrics.edges_considered);
        assert_eq!(metrics.trees_fitted, 0);
        assert_eq!(metrics.rows_extracted, 0);
        assert_eq!(metrics.splits_evaluated, 0);
    }

    #[test]
    fn edges_without_outputs_get_support_only() {
        let log = procmine_log::WorkflowLog::from_strings(["ABC", "ABC", "AC"]).unwrap();
        let mined = mine_general_dag(&log, &MinerOptions::default()).unwrap();
        let learned = learn_edge_conditions(&mined, &log, &TreeConfig::default());
        for c in &learned {
            assert!(c.tree.is_none(), "no outputs anywhere in this log");
        }
        let ab = learned
            .iter()
            .find(|c| c.from == "A" && c.to == "B")
            .unwrap();
        assert_eq!(ab.support, (1, 2));
        assert!(ab.predict(&[]), "majority of A-executions take B");
    }
}
