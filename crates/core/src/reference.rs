//! Legacy nested-`Vec` mining path, kept as a differential baseline.
//!
//! The production miners lower logs into the columnar
//! [`procmine_log::EventColumns`] layout and run arena-backed scratch
//! (see `general_dag`). This module preserves the pre-columnar data
//! path — one `Vec<(vertex, start, end)>` per execution, per-execution
//! `Vec<BitSet>` scratch — exactly as it shipped, so the differential
//! test suite (and the perfsuite `mine.legacy` cell) can pin
//! the columnar path's mined models, edge supports, and counters to it.
//! Same precedent as `codec::xes_reference` in `procmine-log`.
//!
//! The reference implementations are serial and skip session plumbing
//! (deadlines, tracing, registries): they validate the same structural
//! errors ([`MineError::EmptyLog`], repeats, the special-DAG
//! precondition) and fill the same [`MinerMetrics`] counters, but
//! record no stage timings.

use crate::model::graph_skeleton;
use crate::telemetry::MinerMetrics;
use crate::{Algorithm, MineError, MinedModel, MinerOptions};
use procmine_graph::reduction::transitive_reduction_matrix;
use procmine_graph::{scc, AdjMatrix, BitSet, NodeId};
use procmine_log::WorkflowLog;

/// Step-2 counts in the legacy layout (row-major `n × n`, like the
/// production `OrderObservations`).
struct Counts {
    ordered: Vec<u32>,
    overlap: Vec<u32>,
}

/// Lowers a log the legacy way: one nested `Vec` per execution.
fn lower(log: &WorkflowLog) -> Vec<Vec<(usize, u64, u64)>> {
    log.executions()
        .iter()
        .map(|e| {
            e.instances()
                .iter()
                .map(|i| (i.activity.index(), i.start, i.end))
                .collect()
        })
        .collect()
}

/// The legacy counting pass over nested executions.
fn count(n: usize, execs: &[Vec<(usize, u64, u64)>], metrics: &mut MinerMetrics) -> Counts {
    let mut c = Counts {
        ordered: vec![0u32; n * n],
        overlap: vec![0u32; n * n],
    };
    for exec in execs {
        for (i, &(u, _, end_u)) in exec.iter().enumerate() {
            for &(v, start_v, _) in &exec[i + 1..] {
                if end_u < start_v {
                    c.ordered[u * n + v] += 1;
                } else {
                    c.overlap[u * n + v] += 1;
                    c.overlap[v * n + u] += 1;
                }
            }
        }
        let k = exec.len() as u64;
        metrics.pairs_counted += k * k.saturating_sub(1) / 2;
    }
    metrics.executions_scanned += execs.len() as u64;
    c
}

/// Threshold + two-cycle removal (steps 3 of Algorithms 1–3).
fn threshold_graph(n: usize, c: &Counts, threshold: u32, metrics: &mut MinerMetrics) -> AdjMatrix {
    metrics.edges_before_threshold += (0..n * n)
        .filter(|&i| i / n != i % n && c.ordered[i] > 0)
        .count() as u64;
    let mut g = AdjMatrix::new(n);
    for u in 0..n {
        for v in 0..n {
            if u != v && c.ordered[u * n + v] >= threshold && c.overlap[u * n + v] < threshold {
                g.add_edge(u, v);
            }
        }
    }
    let thresholded = g.edge_count();
    g.remove_two_cycles();
    metrics.edges_after_threshold += thresholded as u64;
    metrics.two_cycles_dissolved += ((thresholded - g.edge_count()) / 2) as u64;
    g
}

/// Step 4 of Algorithm 2: dissolve strongly connected components.
fn remove_sccs(g: &mut AdjMatrix, metrics: &mut MinerMetrics) {
    let digraph = g.to_digraph(|_| ());
    let sccs = scc::tarjan_scc(&digraph);
    for comp in sccs.nontrivial() {
        metrics.scc_count += 1;
        for &u in comp {
            for &v in comp {
                if u != v {
                    g.remove_edge(u.index(), v.index());
                }
            }
        }
    }
}

/// Steps 5–6 for one execution with the legacy `Vec<BitSet>` scratch:
/// induced-subgraph transitive reduction over positions, marking the
/// surviving edges.
fn mark_one_execution(g: &AdjMatrix, exec: &[(usize, u64, u64)], marked: &mut AdjMatrix) {
    let k = exec.len();
    let mut sub: Vec<BitSet> = vec![BitSet::new(k); k];
    let mut desc: Vec<BitSet> = vec![BitSet::new(k); k];
    for i in 0..k {
        let (u, _, end_u) = exec[i];
        for (j, &(v, start_v, _)) in exec.iter().enumerate().skip(i + 1) {
            if end_u < start_v && g.has_edge(u, v) {
                sub[i].insert(j);
            }
        }
    }
    for i in (0..k).rev() {
        let (before, after) = desc.split_at_mut(i + 1);
        let di = &mut before[i];
        for s in sub[i].iter() {
            di.union_with(&after[s - i - 1]);
        }
        let redundant: Vec<usize> = sub[i].iter().filter(|&s| di.contains(s)).collect();
        for s in redundant {
            sub[i].remove(s);
        }
        for s in sub[i].iter() {
            di.insert(s);
        }
    }
    for i in 0..k {
        for j in sub[i].iter() {
            marked.add_edge(exec[i].0, exec[j].0);
        }
    }
}

/// Steps 2–7 of Algorithm 2 over a lowered vertex log (legacy layout).
fn mine_vertices(
    n: usize,
    execs: &[Vec<(usize, u64, u64)>],
    threshold: u32,
    metrics: &mut MinerMetrics,
) -> (AdjMatrix, Vec<u32>) {
    let c = count(n, execs, metrics);
    let mut g = threshold_graph(n, &c, threshold, metrics);
    remove_sccs(&mut g, metrics);
    let mut marked = AdjMatrix::new(n);
    for exec in execs {
        mark_one_execution(&g, exec, &mut marked);
    }
    let unmarked: Vec<(usize, usize)> =
        g.edges().filter(|&(u, v)| !marked.has_edge(u, v)).collect();
    metrics.edges_dropped_by_reduction += unmarked.len() as u64;
    for (u, v) in unmarked {
        g.remove_edge(u, v);
    }
    metrics.edges_final += g.edge_count() as u64;
    (g, c.ordered)
}

/// Legacy Algorithm 2 (general DAG). Returns the mined model and the
/// counters the production pipeline would record for the same log.
pub fn mine_general_reference(
    log: &WorkflowLog,
    options: &MinerOptions,
) -> Result<(MinedModel, MinerMetrics), MineError> {
    if log.is_empty() {
        return Err(MineError::EmptyLog);
    }
    for exec in log.executions() {
        if exec.has_repeats() {
            return Err(MineError::RepeatsRequireCyclicMiner {
                execution: exec.id.clone(),
            });
        }
    }
    let n = log.activities().len();
    let execs = lower(log);
    let mut metrics = MinerMetrics::new();
    let (g, counts) = mine_vertices(n, &execs, options.noise_threshold, &mut metrics);
    let mut graph = graph_skeleton(log.activities());
    let mut support = Vec::with_capacity(g.edge_count());
    for (u, v) in g.edges() {
        graph.add_edge(NodeId::new(u), NodeId::new(v));
        support.push((u, v, counts[u * n + v]));
    }
    Ok((MinedModel::new(graph, support), metrics))
}

/// Legacy Algorithm 1 (special DAG): count, threshold, two-cycle
/// removal, then one *global* transitive reduction.
pub fn mine_special_reference(
    log: &WorkflowLog,
    options: &MinerOptions,
) -> Result<(MinedModel, MinerMetrics), MineError> {
    if log.is_empty() {
        return Err(MineError::EmptyLog);
    }
    let n = log.activities().len();
    for exec in log.executions() {
        if exec.has_repeats() {
            return Err(MineError::RepeatsRequireCyclicMiner {
                execution: exec.id.clone(),
            });
        }
        if exec.len() != n {
            return Err(MineError::SpecialPreconditionViolated {
                execution: exec.id.clone(),
            });
        }
    }
    let execs = lower(log);
    let mut metrics = MinerMetrics::new();
    let c = count(n, &execs, &mut metrics);
    let counts = c.ordered.clone();
    let m = threshold_graph(n, &c, options.noise_threshold, &mut metrics);
    let reduced = transitive_reduction_matrix(&m).map_err(|_| MineError::UnexpectedCycle)?;
    metrics.edges_dropped_by_reduction += (m.edge_count() - reduced.edge_count()) as u64;
    metrics.edges_final += reduced.edge_count() as u64;
    let mut graph = graph_skeleton(log.activities());
    let mut support = Vec::with_capacity(reduced.edge_count());
    for (u, v) in reduced.edges() {
        graph.add_edge(NodeId::new(u), NodeId::new(v));
        support.push((u, v, counts[u * n + v]));
    }
    Ok((MinedModel::new(graph, support), metrics))
}

/// Legacy Algorithm 3 (cyclic): instance labeling over the nested
/// layout, the Algorithm 2 pipeline on instance vertices, then the
/// instance-merge step.
pub fn mine_cyclic_reference(
    log: &WorkflowLog,
    options: &MinerOptions,
) -> Result<(MinedModel, MinerMetrics), MineError> {
    if log.is_empty() {
        return Err(MineError::EmptyLog);
    }
    let n = log.activities().len();
    let mut max_occ = vec![0usize; n];
    for exec in log.executions() {
        let mut counts = vec![0usize; n];
        for a in exec.sequence() {
            counts[a.index()] += 1;
            max_occ[a.index()] = max_occ[a.index()].max(counts[a.index()]);
        }
    }
    let mut offset = vec![0usize; n + 1];
    for a in 0..n {
        offset[a + 1] = offset[a] + max_occ[a];
    }
    let total = offset[n];
    let mut activity_of = vec![0usize; total];
    for a in 0..n {
        activity_of[offset[a]..offset[a + 1]].fill(a);
    }
    let execs: Vec<Vec<(usize, u64, u64)>> = log
        .executions()
        .iter()
        .map(|e| {
            e.instances()
                .iter()
                .zip(e.labeled_sequence())
                .map(|(inst, (a, occ))| (offset[a.index()] + occ as usize, inst.start, inst.end))
                .collect()
        })
        .collect();

    let mut metrics = MinerMetrics::new();
    let (g, counts) = mine_vertices(total, &execs, options.noise_threshold, &mut metrics);

    let mut graph = graph_skeleton(log.activities());
    let mut support_acc = vec![0u32; n * n];
    for (x, y) in g.edges() {
        let (a, b) = (activity_of[x], activity_of[y]);
        if a != b {
            graph.add_edge(NodeId::new(a), NodeId::new(b));
            support_acc[a * n + b] = support_acc[a * n + b].saturating_add(counts[x * total + y]);
        }
    }
    let support: Vec<(usize, usize, u32)> = graph
        .edges()
        .map(|(u, v)| (u.index(), v.index(), support_acc[u.index() * n + v.index()]))
        .collect();
    metrics.edges_final = support.len() as u64;
    Ok((MinedModel::new(graph, support), metrics))
}

/// Legacy auto-dispatch, mirroring `mine_auto`'s selection rules.
pub fn mine_auto_reference(
    log: &WorkflowLog,
    options: &MinerOptions,
) -> Result<(MinedModel, Algorithm, MinerMetrics), MineError> {
    if log.is_empty() {
        return Err(MineError::EmptyLog);
    }
    if log.has_repeats() {
        let (model, metrics) = mine_cyclic_reference(log, options)?;
        Ok((model, Algorithm::Cyclic, metrics))
    } else if log.every_activity_in_every_execution() {
        let (model, metrics) = mine_special_reference(log, options)?;
        Ok((model, Algorithm::SpecialDag, metrics))
    } else {
        let (model, metrics) = mine_general_reference(log, options)?;
        Ok((model, Algorithm::GeneralDag, metrics))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_reproduces_paper_example_7() {
        let log = WorkflowLog::from_strings(["ABCF", "ACDF", "ADEF", "AECF"]).unwrap();
        let (model, metrics) = mine_general_reference(&log, &MinerOptions::default()).unwrap();
        let mut edges = model.edges_named();
        edges.sort();
        assert_eq!(
            edges,
            vec![
                ("A", "B"),
                ("A", "C"),
                ("A", "D"),
                ("A", "E"),
                ("B", "C"),
                ("C", "F"),
                ("D", "F"),
                ("E", "F"),
            ]
        );
        assert_eq!(metrics.executions_scanned, 4);
        assert_eq!(metrics.pairs_counted, 4 * 6);
        assert_eq!(metrics.scc_count, 1);
        assert_eq!(metrics.edges_final, model.edge_count() as u64);
    }

    #[test]
    fn reference_reproduces_paper_example_6() {
        let log = WorkflowLog::from_strings(["ABCDE", "ACDBE", "ACBDE"]).unwrap();
        let (model, _) = mine_special_reference(&log, &MinerOptions::default()).unwrap();
        let mut edges = model.edges_named();
        edges.sort();
        assert_eq!(
            edges,
            vec![("A", "B"), ("A", "C"), ("B", "E"), ("C", "D"), ("D", "E")]
        );
    }

    #[test]
    fn reference_reproduces_paper_example_8() {
        let log = WorkflowLog::from_strings(["ABDCE", "ABDCBCE", "ABCBDCE", "ADE"]).unwrap();
        let (model, _) = mine_cyclic_reference(&log, &MinerOptions::default()).unwrap();
        assert!(
            model.has_edge("B", "C") && model.has_edge("C", "B"),
            "B⇄C cycle"
        );
    }

    #[test]
    fn reference_validates_structural_errors() {
        assert_eq!(
            mine_general_reference(&WorkflowLog::new(), &MinerOptions::default()).unwrap_err(),
            MineError::EmptyLog
        );
        let repeats = WorkflowLog::from_strings(["ABA"]).unwrap();
        assert!(matches!(
            mine_general_reference(&repeats, &MinerOptions::default()),
            Err(MineError::RepeatsRequireCyclicMiner { .. })
        ));
        let partial = WorkflowLog::from_strings(["ABC", "AB"]).unwrap();
        assert!(matches!(
            mine_special_reference(&partial, &MinerOptions::default()),
            Err(MineError::SpecialPreconditionViolated { .. })
        ));
    }

    #[test]
    fn auto_reference_dispatches_like_production() {
        let special = WorkflowLog::from_strings(["ABC", "ACB"]).unwrap();
        let (_, alg, _) = mine_auto_reference(&special, &MinerOptions::default()).unwrap();
        assert_eq!(alg, Algorithm::SpecialDag);
        let cyclic = WorkflowLog::from_strings(["ABCBD"]).unwrap();
        let (_, alg, _) = mine_auto_reference(&cyclic, &MinerOptions::default()).unwrap();
        assert_eq!(alg, Algorithm::Cyclic);
    }
}
