//! Differential suite pinning the columnar mining path to the legacy
//! nested-`Vec` path kept in [`procmine_core::reference`].
//!
//! The columnar refactor (struct-of-arrays `EventColumns`, arena-backed
//! marking scratch, contiguous-word adjacency rows) must be a pure
//! layout change: for every log, each miner's mined model — edges,
//! supports — and its algorithmic `--stats-json` counters must be
//! bit-identical to what the pre-refactor implementation produced. The
//! reference module is a self-contained re-implementation of that
//! implementation (per-execution `Vec`s, per-execution `BitSet`
//! allocations, non-budgeted serial kernels), so agreement here is
//! evidence the refactor changed representation, not behavior.
//!
//! Covered miners: special (Algorithm 1), general (Algorithm 2), cyclic
//! (Algorithm 3), auto dispatch, the parallel strategy, and the
//! incremental miner — plus conformance replay of both models.

use procmine_core::conformance::check_conformance;
use procmine_core::reference::{
    mine_auto_reference, mine_cyclic_reference, mine_general_reference, mine_special_reference,
};
use procmine_core::{
    mine_auto_in, mine_cyclic_in, mine_general_dag_in, mine_special_dag_in, Counters,
    IncrementalMiner, MineSession, MinedModel, MinerMetrics, MinerOptions,
};
use procmine_log::{ActivityInstance, Execution, WorkflowLog};
use proptest::prelude::*;
use proptest::{collection, sample};

/// Activity-name pool shared by all generators.
const NAMES: [&str; 8] = ["A", "B", "C", "D", "E", "F", "G", "H"];

/// Builds a log from index sequences (instantaneous executions).
fn log_from_indices(seqs: &[Vec<usize>]) -> WorkflowLog {
    WorkflowLog::from_sequences(
        seqs.iter()
            .map(|seq| seq.iter().map(|&i| NAMES[i]).collect::<Vec<_>>()),
    )
    .expect("generated sequences are non-empty")
}

/// A repeat-free execution: random activity draws deduplicated to their
/// first occurrence, so arbitrary orders (and order conflicts across
/// executions) appear without ever repeating an activity.
fn repeat_free_exec(n: usize) -> impl Strategy<Value = Vec<usize>> {
    collection::vec(0usize..n, 1..=n * 2).prop_map(|draws| {
        let mut seen = [false; NAMES.len()];
        let mut seq = Vec::new();
        for d in draws {
            if !seen[d] {
                seen[d] = true;
                seq.push(d);
            }
        }
        seq
    })
}

/// A repeat-free log over `n` activities where every activity occurs in
/// at least one execution (so the table is exactly `0..n`).
fn general_log(n: usize) -> impl Strategy<Value = WorkflowLog> {
    collection::vec(repeat_free_exec(n), 1..10).prop_map(move |mut seqs| {
        // Guarantee full coverage of the activity universe so models
        // over the same table are compared like for like.
        seqs.push((0..n).collect());
        log_from_indices(&seqs)
    })
}

/// A log satisfying Algorithm 1's precondition: every execution is a
/// permutation of all `n` activities.
fn special_log(n: usize) -> impl Strategy<Value = WorkflowLog> {
    collection::vec(
        sample::subsequence((0..n).collect::<Vec<_>>(), n..=n).prop_shuffle(),
        1..10,
    )
    .prop_map(|seqs| log_from_indices(&seqs))
}

/// A log whose executions may repeat activities (Algorithm 3 input).
fn cyclic_log(n: usize) -> impl Strategy<Value = WorkflowLog> {
    collection::vec(collection::vec(0usize..n, 1..=12), 1..10).prop_map(move |mut seqs| {
        seqs.push((0..n).collect());
        log_from_indices(&seqs)
    })
}

/// An interval log: events carry real (start, duration) intervals, so
/// the overlap-counting path (§2 independence evidence) is exercised,
/// not just the strictly-ordered instantaneous form.
fn interval_log(n: usize) -> impl Strategy<Value = WorkflowLog> {
    collection::vec(collection::vec((0u64..40, 0u64..6), 1..=8), 1..8).prop_map(move |execs| {
        let mut log = WorkflowLog::new();
        let ids: Vec<_> = (0..n).map(|i| log.intern_activity(NAMES[i])).collect();
        for (x, events) in execs.iter().enumerate() {
            // One instance per distinct activity, at most n per
            // execution: take the first occurrence of each index.
            let mut seen = vec![false; n];
            let mut instances = Vec::new();
            for (j, &(start, dur)) in events.iter().enumerate() {
                let a = j % n;
                if !seen[a] {
                    seen[a] = true;
                    instances.push(ActivityInstance {
                        activity: ids[a],
                        start,
                        end: start + dur,
                        output: None,
                    });
                }
            }
            log.push(Execution::new(format!("case-{x}"), instances).unwrap());
        }
        log
    })
}

/// Runs a `*_in` miner with a metrics sink and returns model + metrics.
fn with_metrics<F>(f: F) -> (MinedModel, MinerMetrics)
where
    F: FnOnce(&mut MineSession<&mut MinerMetrics>) -> MinedModel,
{
    let mut metrics = MinerMetrics::new();
    let mut session = MineSession::new().with_sink(&mut metrics);
    let model = f(&mut session);
    drop(session);
    (model, metrics)
}

/// The model-level equality the suite pins: same edges in the same
/// order and identical per-edge supports.
fn assert_models_identical(columnar: &MinedModel, legacy: &MinedModel, what: &str) {
    assert_eq!(
        columnar.edges_named(),
        legacy.edges_named(),
        "{what}: edge sets diverged"
    );
    assert_eq!(
        columnar.edge_support(),
        legacy.edge_support(),
        "{what}: edge supports diverged"
    );
}

/// Counter equality: the eight algorithmic counters must match the
/// legacy path exactly (the arena section is new telemetry about the
/// columnar path itself and is deliberately outside `counters()`).
fn assert_counters_identical(columnar: &MinerMetrics, legacy: &MinerMetrics, what: &str) {
    assert_eq!(
        columnar.counters(),
        legacy.counters(),
        "{what}: --stats-json counters diverged"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn general_miner_matches_reference(log in general_log(6), threshold in 1u32..3) {
        let options = MinerOptions::with_threshold(threshold);
        let (model, metrics) =
            with_metrics(|s| mine_general_dag_in(s, &log, &options).unwrap());
        let (expected, ref_metrics) = mine_general_reference(&log, &options).unwrap();
        assert_models_identical(&model, &expected, "general");
        assert_counters_identical(&metrics, &ref_metrics, "general");
    }

    #[test]
    fn special_miner_matches_reference(log in special_log(5), threshold in 1u32..3) {
        let options = MinerOptions::with_threshold(threshold);
        let mut metrics = MinerMetrics::new();
        let mut session = MineSession::new().with_sink(&mut metrics);
        let result = mine_special_dag_in(&mut session, &log, &options);
        drop(session);
        match (result, mine_special_reference(&log, &options)) {
            (Ok(model), Ok((expected, ref_metrics))) => {
                assert_models_identical(&model, &expected, "special");
                assert_counters_identical(&metrics, &ref_metrics, "special");
            }
            // Thresholding can leave a long ordering cycle, which
            // Algorithm 1 rejects — both paths must reject identically.
            (Err(e), Err(ref_e)) => assert_eq!(e, ref_e, "special: error paths diverged"),
            (a, b) => panic!("special: one path failed, the other succeeded: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn cyclic_miner_matches_reference(log in cyclic_log(4), threshold in 1u32..3) {
        let options = MinerOptions::with_threshold(threshold);
        let (model, metrics) =
            with_metrics(|s| mine_cyclic_in(s, &log, &options).unwrap());
        let (expected, ref_metrics) = mine_cyclic_reference(&log, &options).unwrap();
        assert_models_identical(&model, &expected, "cyclic");
        assert_counters_identical(&metrics, &ref_metrics, "cyclic");
    }

    #[test]
    fn auto_dispatch_matches_reference(log in cyclic_log(4)) {
        let options = MinerOptions::default();
        let mut metrics = MinerMetrics::new();
        let mut session = MineSession::new().with_sink(&mut metrics);
        let (model, algorithm) = mine_auto_in(&mut session, &log, &options).unwrap();
        drop(session);
        let (expected, ref_algorithm, ref_metrics) =
            mine_auto_reference(&log, &options).unwrap();
        assert_eq!(algorithm, ref_algorithm, "auto: dispatch diverged");
        assert_models_identical(&model, &expected, "auto");
        assert_counters_identical(&metrics, &ref_metrics, "auto");
    }

    #[test]
    fn parallel_strategy_matches_reference(log in general_log(6), threads in 2usize..5) {
        let options = MinerOptions::default();
        let mut metrics = MinerMetrics::new();
        let mut session = MineSession::new()
            .with_threads(threads)
            .with_sink(&mut metrics);
        let model = mine_general_dag_in(&mut session, &log, &options).unwrap();
        drop(session);
        let (expected, ref_metrics) = mine_general_reference(&log, &options).unwrap();
        assert_models_identical(&model, &expected, "parallel");
        assert_counters_identical(&metrics, &ref_metrics, "parallel");
    }

    #[test]
    fn incremental_miner_matches_reference(log in general_log(5)) {
        let options = MinerOptions::default();
        let mut inc = IncrementalMiner::new(options.clone());
        inc.absorb_log(&log).unwrap();
        let model = inc.model().unwrap();
        let (expected, _) = mine_general_reference(&log, &options).unwrap();
        assert_models_identical(&model, &expected, "incremental");

        // A checkpoint round trip through the (unchanged) nested wire
        // format must preserve the columns exactly.
        let resumed =
            IncrementalMiner::from_state(options, inc.export_state()).unwrap();
        let remodel = resumed.model().unwrap();
        assert_models_identical(&remodel, &expected, "incremental resume");
    }

    #[test]
    fn interval_overlap_logs_match_reference(log in interval_log(5)) {
        let options = MinerOptions::default();
        let (model, metrics) =
            with_metrics(|s| mine_general_dag_in(s, &log, &options).unwrap());
        let (expected, ref_metrics) = mine_general_reference(&log, &options).unwrap();
        assert_models_identical(&model, &expected, "interval");
        assert_counters_identical(&metrics, &ref_metrics, "interval");
    }

    #[test]
    fn conformance_replay_agrees_on_both_models(log in general_log(5)) {
        let options = MinerOptions::default();
        let (model, _) =
            with_metrics(|s| mine_general_dag_in(s, &log, &options).unwrap());
        let (expected, _) = mine_general_reference(&log, &options).unwrap();
        // Identical models must replay identically: the full report —
        // per-violation tallies included — is compared structurally.
        assert_eq!(
            check_conformance(&model, &log),
            check_conformance(&expected, &log),
            "conformance replay diverged between columnar and legacy models"
        );
    }
}
