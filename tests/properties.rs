//! Property-based tests (proptest) over the core invariants:
//!
//! * mined models are conformal with their input log (the Definition 7
//!   guarantee, checked by the independent conformance module);
//! * transitive reduction preserves the closure and is minimal;
//! * SCC decomposition agrees with brute-force mutual reachability;
//! * codecs round-trip arbitrary logs.

use procmine::graph::reach::{has_path, transitive_closure};
use procmine::graph::reduction::{transitive_reduction_dag, transitive_reduction_naive};
use procmine::graph::{scc, DiGraph, NodeId};
use procmine::log::codec::{flowmark, jsonl, seqs};
use procmine::log::WorkflowLog;
use procmine::mine::conformance::check_conformance;
use procmine::mine::{mine_auto, MinerOptions};
use proptest::prelude::*;

/// Strategy: a random log of executions over activities `A`..`J`. Each
/// execution is a shuffled subset wrapped in fixed START/END
/// activities, so logs look like real partial process executions.
fn arb_log(max_execs: usize) -> impl Strategy<Value = WorkflowLog> {
    let activity_pool: Vec<String> = (b'B'..=b'I').map(|c| (c as char).to_string()).collect();
    let exec = proptest::sample::subsequence(activity_pool, 0..=8).prop_shuffle();
    proptest::collection::vec(exec, 1..=max_execs).prop_map(|execs| {
        let mut log = WorkflowLog::new();
        for middle in execs {
            let mut seq = vec!["A".to_string()];
            seq.extend(middle);
            seq.push("J".to_string());
            log.push_sequence(&seq).unwrap();
        }
        log
    })
}

/// Strategy: a random DAG over `n` nodes (edges only go forward in node
/// order, so acyclicity is structural).
fn arb_dag(n: usize) -> impl Strategy<Value = DiGraph<()>> {
    let pairs: Vec<(usize, usize)> = (0..n)
        .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
        .collect();
    proptest::sample::subsequence(pairs, 0..=n * (n - 1) / 2)
        .prop_map(move |edges| DiGraph::from_edges(vec![(); n], edges))
}

fn owned_sorted_edges(model: &procmine::mine::MinedModel) -> Vec<(String, String)> {
    let mut edges: Vec<(String, String)> = model
        .edges_named()
        .into_iter()
        .map(|(u, v)| (u.to_string(), v.to_string()))
        .collect();
    edges.sort();
    edges
}

/// Every miner as spelled through the plain convenience entry points
/// (which build a default session internally). One sorted edge list
/// per miner; errors compare by debug rendering.
fn edges_via_plain(
    log: &WorkflowLog,
    options: &MinerOptions,
    threads: usize,
) -> Vec<Result<Vec<(String, String)>, String>> {
    use procmine::mine::{
        mine_auto, mine_cyclic, mine_general_dag, mine_general_dag_parallel, mine_special_dag,
        IncrementalMiner,
    };
    let mut inc = IncrementalMiner::new(options.clone());
    inc.absorb_log(log).expect("logs here have no repeats");
    [
        mine_special_dag(log, options),
        mine_general_dag(log, options),
        mine_cyclic(log, options),
        mine_auto(log, options).map(|(m, _)| m),
        mine_general_dag_parallel(log, options, threads),
        inc.model(),
    ]
    .into_iter()
    .map(|r| {
        r.map(|m| owned_sorted_edges(&m))
            .map_err(|e| format!("{e:?}"))
    })
    .collect()
}

/// The same miners through the session pipeline, with `threads`
/// selecting the parallel execution strategy for the fifth entry.
fn edges_via_sessions(
    log: &WorkflowLog,
    options: &MinerOptions,
    threads: usize,
) -> Vec<Result<Vec<(String, String)>, String>> {
    use procmine::mine::{
        mine_auto_in, mine_cyclic_in, mine_general_dag_in, mine_special_dag_in, IncrementalMiner,
        MineSession,
    };
    let mut inc = IncrementalMiner::new(options.clone());
    inc.absorb_log(log).expect("logs here have no repeats");
    [
        mine_special_dag_in(&mut MineSession::new(), log, options),
        mine_general_dag_in(&mut MineSession::new(), log, options),
        mine_cyclic_in(&mut MineSession::new(), log, options),
        mine_auto_in(&mut MineSession::new(), log, options).map(|(m, _)| m),
        mine_general_dag_in(&mut MineSession::new().with_threads(threads), log, options),
        inc.model_in(&mut MineSession::new()),
    ]
    .into_iter()
    .map(|r| {
        r.map(|m| owned_sorted_edges(&m))
            .map_err(|e| format!("{e:?}"))
    })
    .collect()
}

/// One sorted edge list (or rendered error) per miner.
type MinerEdges = Vec<Result<Vec<(String, String)>, String>>;

/// The same miners through sessions all sharing an **enabled** metrics
/// registry. Returns the per-miner edge lists plus the registry, so the
/// caller can both compare output and check the samples collected.
fn edges_via_metered_sessions(
    log: &WorkflowLog,
    options: &MinerOptions,
    threads: usize,
) -> (MinerEdges, procmine::mine::Registry) {
    use procmine::mine::{
        mine_auto_in, mine_cyclic_in, mine_general_dag_in, mine_special_dag_in, IncrementalMiner,
        MineSession, Registry,
    };
    let reg = Registry::new();
    let session = || MineSession::new().with_obs(reg.clone());
    let mut inc = IncrementalMiner::new(options.clone());
    inc.absorb_log(log).expect("logs here have no repeats");
    let edges = [
        mine_special_dag_in(&mut session(), log, options),
        mine_general_dag_in(&mut session(), log, options),
        mine_cyclic_in(&mut session(), log, options),
        mine_auto_in(&mut session(), log, options).map(|(m, _)| m),
        mine_general_dag_in(&mut session().with_threads(threads), log, options),
        inc.model_in(&mut session()),
    ]
    .into_iter()
    .map(|r| {
        r.map(|m| owned_sorted_edges(&m))
            .map_err(|e| format!("{e:?}"))
    })
    .collect();
    (edges, reg)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn metered_miners_match_unmetered_output(log in arb_log(10), threads in 2usize..6) {
        // An enabled metrics registry must never steer mining: models
        // (and errors) are identical with metrics on or off, and the
        // shared registry actually collected stage-latency samples
        // whenever any miner succeeded.
        use procmine::mine::Stage;
        let options = MinerOptions::default();
        let (metered, reg) = edges_via_metered_sessions(&log, &options, threads);
        let plain = edges_via_plain(&log, &options, threads);
        let any_ok = plain.iter().any(Result::is_ok);
        prop_assert_eq!(plain, metered);
        if any_ok {
            let samples: u64 = [
                Stage::Lower,
                Stage::CountPairs,
                Stage::Prune,
                Stage::SccRemoval,
                Stage::Reduce,
                Stage::Assemble,
            ]
            .into_iter()
            .map(|s| reg.stage_latency(s).snapshot().count)
            .sum();
            prop_assert!(samples > 0, "no stage-latency samples recorded");
        }
    }

    #[test]
    fn mined_models_are_conformal(log in arb_log(12)) {
        let (model, _) = mine_auto(&log, &MinerOptions::default()).unwrap();
        let report = check_conformance(&model, &log);
        prop_assert!(report.is_conformal(), "log {:?}: {report:?}", log.display_sequences());
    }

    #[test]
    fn transitive_reduction_preserves_closure(g in arb_dag(10)) {
        let tr = transitive_reduction_dag(&g).unwrap();
        prop_assert_eq!(transitive_closure(&g), transitive_closure(&tr));
        prop_assert!(tr.edge_count() <= g.edge_count());
    }

    #[test]
    fn transitive_reduction_is_minimal(g in arb_dag(9)) {
        // Removing any edge of the reduction changes the closure.
        let tr = transitive_reduction_dag(&g).unwrap();
        let closure = transitive_closure(&tr);
        for (u, v) in tr.edges().collect::<Vec<_>>() {
            let mut smaller = tr.clone();
            smaller.remove_edge(u, v);
            prop_assert_ne!(
                transitive_closure(&smaller), closure.clone(),
                "edge {:?}->{:?} was removable", u, v
            );
        }
    }

    #[test]
    fn fast_tr_matches_naive(g in arb_dag(10)) {
        let fast = transitive_reduction_dag(&g).unwrap();
        let naive = transitive_reduction_naive(&g).unwrap();
        prop_assert_eq!(
            fast.edges().collect::<Vec<_>>(),
            naive.edges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn scc_matches_mutual_reachability(edges in proptest::collection::vec((0usize..8, 0usize..8), 0..24)) {
        let g = DiGraph::from_edges(vec![(); 8], edges);
        let sccs = scc::tarjan_scc(&g);
        for u in 0..8 {
            for v in 0..8 {
                if u == v { continue; }
                let mutual = has_path(&g, NodeId::new(u), NodeId::new(v))
                    && has_path(&g, NodeId::new(v), NodeId::new(u));
                prop_assert_eq!(
                    sccs.same_component(NodeId::new(u), NodeId::new(v)),
                    mutual,
                    "u={} v={}", u, v
                );
            }
        }
    }

    #[test]
    fn dominators_match_path_enumeration(g in arb_dag(7)) {
        use procmine::graph::dominators::dominators;
        use procmine::graph::paths::all_simple_paths;
        let root = NodeId::new(0);
        let dom = dominators(&g, root);
        for v in 1..7usize {
            let v = NodeId::new(v);
            let paths = all_simple_paths(&g, root, v, 512);
            if paths.is_empty() {
                prop_assert!(!dom.is_reachable(v));
                continue;
            }
            for d in 0..7usize {
                let d = NodeId::new(d);
                let on_all = paths.iter().all(|p| p.contains(&d));
                prop_assert_eq!(
                    dom.dominates(d, v),
                    on_all,
                    "node {:?} vs {:?}", d, v
                );
            }
        }
    }

    #[test]
    fn cyclic_mined_models_fit_their_logs(rounds in proptest::collection::vec(1usize..4, 1..8)) {
        // Rework-loop logs: Draft (Edit Review)^k Publish.
        use procmine::mine::conformance::fitness;
        let mut log = WorkflowLog::new();
        for k in rounds {
            let mut seq = vec!["Draft"];
            for _ in 0..k {
                seq.push("Edit");
                seq.push("Review");
            }
            seq.push("Publish");
            log.push_sequence(&seq).unwrap();
        }
        let (model, _) = mine_auto(&log, &MinerOptions::default()).unwrap();
        let f = fitness(&model, &log);
        prop_assert_eq!(f.fraction(), 1.0, "{:?}", f);
    }

    #[test]
    fn codecs_round_trip(log in arb_log(8)) {
        let mut buf = Vec::new();
        flowmark::write_log(&log, &mut buf).unwrap();
        prop_assert_eq!(
            flowmark::read_log(buf.as_slice()).unwrap().display_sequences(),
            log.display_sequences()
        );

        let mut buf = Vec::new();
        jsonl::write_log(&log, &mut buf).unwrap();
        prop_assert_eq!(
            jsonl::read_log(buf.as_slice()).unwrap().display_sequences(),
            log.display_sequences()
        );

        let mut buf = Vec::new();
        seqs::write_log(&log, &mut buf).unwrap();
        prop_assert_eq!(
            seqs::read_log(buf.as_slice()).unwrap().display_sequences(),
            log.display_sequences()
        );
    }

    #[test]
    fn special_and_general_agree_on_complete_logs(
        perms in proptest::collection::vec(
            Just(vec!["B", "C", "D"]).prop_shuffle(),
            1..10
        )
    ) {
        // Complete logs: A + permutation of B,C,D + E.
        let mut log = WorkflowLog::new();
        for middle in perms {
            let mut seq = vec!["A"];
            seq.extend(middle);
            seq.push("E");
            log.push_sequence(&seq).unwrap();
        }
        let special = procmine::mine::mine_special_dag(&log, &MinerOptions::default()).unwrap();
        let general = procmine::mine::mine_general_dag(&log, &MinerOptions::default()).unwrap();
        let mut a = special.edges_named(); a.sort();
        let mut b = general.edges_named(); b.sort();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn xes_round_trips_arbitrary_logs(log in arb_log(8)) {
        use procmine::log::codec::xes;
        let mut buf = Vec::new();
        xes::write_log(&log, &mut buf).unwrap();
        let back = xes::read_log(buf.as_slice()).unwrap();
        prop_assert_eq!(back.display_sequences(), log.display_sequences());
    }

    #[test]
    fn parallel_matches_serial_on_arbitrary_logs(
        log in arb_log(10),
        threads in 1usize..6,
    ) {
        use procmine::mine::mine_general_dag_parallel;
        let serial = procmine::mine::mine_general_dag(&log, &MinerOptions::default()).unwrap();
        let parallel = mine_general_dag_parallel(&log, &MinerOptions::default(), threads).unwrap();
        let mut a = serial.edges_named(); a.sort();
        let mut b = parallel.edges_named(); b.sort();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn parallel_matches_serial_with_more_threads_than_executions(
        log in arb_log(3),
        threads in 8usize..64,
    ) {
        // Degenerate chunking: most threads receive no executions at
        // all; merge-at-join must still reproduce the serial result.
        use procmine::mine::{mine_general_dag_in, Counters, MineSession, MinerMetrics};
        let mut serial_metrics = MinerMetrics::new();
        let mut serial_session = MineSession::new().with_sink(&mut serial_metrics);
        let serial =
            mine_general_dag_in(&mut serial_session, &log, &MinerOptions::default()).unwrap();
        drop(serial_session);
        let mut parallel_metrics = MinerMetrics::new();
        let mut parallel_session = MineSession::new()
            .with_threads(threads)
            .with_sink(&mut parallel_metrics);
        let parallel =
            mine_general_dag_in(&mut parallel_session, &log, &MinerOptions::default()).unwrap();
        drop(parallel_session);
        let mut a = serial.edges_named(); a.sort();
        let mut b = parallel.edges_named(); b.sort();
        prop_assert_eq!(a, b);
        let mut sa = serial.edge_support().to_vec(); sa.sort();
        let mut sb = parallel.edge_support().to_vec(); sb.sort();
        prop_assert_eq!(sa, sb);
        prop_assert_eq!(serial_metrics.counters(), parallel_metrics.counters());
    }

    #[test]
    fn order_counts_strict_on_zero_duration_ties(
        execs in proptest::collection::vec(
            proptest::collection::vec((0usize..5, 0u64..4), 1..8),
            1..8,
        )
    ) {
        // Zero-duration instances crowded onto 4 timestamps: many pairs
        // share a stamp exactly, where the strict `<` rule must count
        // neither direction as ordered.
        use procmine::log::EventRecord;
        use procmine::mine::follows::OrderCounts;
        const NAMES: [&str; 5] = ["A", "B", "C", "D", "E"];
        let mut records = Vec::new();
        for (i, instances) in execs.iter().enumerate() {
            let case = format!("p{i}");
            let mut instances = instances.clone();
            instances.sort_by_key(|&(_, t)| t);
            for &(a, t) in &instances {
                records.push(EventRecord::start(case.clone(), NAMES[a], t));
                records.push(EventRecord::end(case.clone(), NAMES[a], t, None));
            }
        }
        let log = WorkflowLog::from_events(&records).unwrap();
        let counts = OrderCounts::from_log(&log);

        // Independent oracle over the assembled log.
        let n = log.activities().len();
        let mut expect_ordered = vec![0u32; n * n];
        let mut expect_cooccur = vec![0u32; n * n];
        for exec in log.executions() {
            let mut min_start = vec![u64::MAX; n];
            let mut max_end = vec![0u64; n];
            let mut present = vec![false; n];
            for inst in exec.instances() {
                let a = inst.activity.index();
                present[a] = true;
                min_start[a] = min_start[a].min(inst.start);
                max_end[a] = max_end[a].max(inst.end);
            }
            for u in 0..n {
                for v in 0..n {
                    if u != v && present[u] && present[v] {
                        expect_cooccur[u * n + v] += 1;
                        if max_end[u] < min_start[v] {
                            expect_ordered[u * n + v] += 1;
                        }
                    }
                }
            }
        }
        for u in 0..n {
            for v in 0..n {
                if u == v { continue; }
                prop_assert_eq!(counts.cooccur(u, v), expect_cooccur[u * n + v]);
                prop_assert_eq!(counts.ordered(u, v), expect_ordered[u * n + v]);
                // A pair sharing its only timestamp is unordered both
                // ways, never ordered both ways.
                prop_assert!(
                    counts.ordered(u, v) + counts.ordered(v, u) <= counts.cooccur(u, v),
                    "ordered counts cannot exceed co-occurrences"
                );
            }
        }
    }

    #[test]
    fn session_miners_match_plain(log in arb_log(8)) {
        use procmine::mine::{mine_auto_in, MineSession, MinerMetrics};
        let mut metrics = MinerMetrics::new();
        let mut session = MineSession::new().with_sink(&mut metrics);
        let (metered, alg_a) =
            mine_auto_in(&mut session, &log, &MinerOptions::default()).unwrap();
        drop(session);
        let (plain, alg_b) = mine_auto(&log, &MinerOptions::default()).unwrap();
        prop_assert_eq!(alg_a, alg_b);
        let mut a = metered.edges_named(); a.sort();
        let mut b = plain.edges_named(); b.sort();
        prop_assert_eq!(a, b);
        prop_assert_eq!(metrics.executions_scanned, log.len() as u64);
        prop_assert_eq!(metrics.edges_final, metered.edge_count() as u64);
    }

    #[test]
    fn incremental_matches_batch_on_arbitrary_logs(log in arb_log(10)) {
        use procmine::mine::IncrementalMiner;
        let mut inc = IncrementalMiner::new(MinerOptions::default());
        inc.absorb_log(&log).unwrap();
        let incremental = inc.model().unwrap();
        let batch = procmine::mine::mine_general_dag(&log, &MinerOptions::default()).unwrap();
        let mut a = incremental.edges_named(); a.sort();
        let mut b = batch.edges_named(); b.sort();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn mined_graphs_have_no_two_cycles_or_self_loops(log in arb_log(12)) {
        let (model, _) = mine_auto(&log, &MinerOptions::default()).unwrap();
        let g = model.graph();
        for (u, v) in g.edges() {
            prop_assert!(u != v, "self loop at {:?}", u);
            prop_assert!(!g.has_edge(v, u), "two-cycle {:?} <-> {:?}", u, v);
        }
    }

    #[test]
    fn mined_random_walk_models_are_conformal(
        vertices in 3usize..12,
        edge_pct in 20u64..80,
        m in 1usize..40,
        seed in 0u64..1000,
    ) {
        // §8.1 workload: a noise-free random-walk log mined back into a
        // model must be conformal with the log it came from, and the
        // conformance checker must handle it without panicking.
        use procmine::sim::randdag::{random_dag, RandomDagConfig};
        use procmine::sim::walk::random_walk_log;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = RandomDagConfig { vertices, edge_prob: edge_pct as f64 / 100.0 };
        let model = random_dag(&cfg, &mut rng).unwrap();
        let log = random_walk_log(&model, m, &mut rng).unwrap();
        let mined = procmine::mine::mine_general_dag(&log, &MinerOptions::default()).unwrap();
        let report = check_conformance(&mined, &log);
        prop_assert!(report.is_conformal(), "{report:?}");
    }

    #[test]
    fn session_conformance_matches_plain(log in arb_log(10)) {
        use procmine::mine::conformance::check_conformance_in;
        use procmine::mine::{ConformanceMetrics, MineSession};
        let (model, _) = mine_auto(&log, &MinerOptions::default()).unwrap();
        let plain = check_conformance(&model, &log);
        let mut metrics = ConformanceMetrics::new();
        let mut session = MineSession::new().with_sink(&mut metrics);
        let metered = check_conformance_in(&mut session, &model, &log);
        drop(session);
        prop_assert_eq!(&plain, &metered);
        prop_assert_eq!(metrics.executions_checked, log.len() as u64);
        prop_assert_eq!(
            metrics.consistent_executions,
            (log.len() - plain.inconsistent_executions.len()) as u64
        );
        prop_assert_eq!(metrics.missing_dependencies, plain.missing_dependencies.len() as u64);
        prop_assert_eq!(metrics.spurious_dependencies, plain.spurious_dependencies.len() as u64);
    }

    #[test]
    fn cyclic_agrees_with_general_on_repeat_free_logs(log in arb_log(10)) {
        let cyclic = procmine::mine::mine_cyclic(&log, &MinerOptions::default()).unwrap();
        let general = procmine::mine::mine_general_dag(&log, &MinerOptions::default()).unwrap();
        let mut a = cyclic.edges_named(); a.sort();
        let mut b = general.edges_named(); b.sort();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn session_miners_match_plain_entry_points_on_random_walks(
        vertices in 3usize..10,
        edge_pct in 20u64..80,
        m in 1usize..30,
        seed in 0u64..500,
        threads in 2usize..6,
    ) {
        // The plain convenience miners build a default session
        // internally: on §8.1 random-walk logs every miner — special,
        // general, cyclic, auto, the `threads`-wide parallel strategy,
        // and the incremental miner — must produce the exact result (or
        // the exact error) of its explicit session spelling.
        use procmine::sim::randdag::{random_dag, RandomDagConfig};
        use procmine::sim::walk::random_walk_log;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = RandomDagConfig { vertices, edge_prob: edge_pct as f64 / 100.0 };
        let model = random_dag(&cfg, &mut rng).unwrap();
        let log = random_walk_log(&model, m, &mut rng).unwrap();
        let options = MinerOptions::default();
        prop_assert_eq!(
            edges_via_plain(&log, &options, threads),
            edges_via_sessions(&log, &options, threads)
        );
    }

    #[test]
    fn session_miners_match_plain_entry_points_on_partial_logs(log in arb_log(10), threads in 2usize..6) {
        // Same equivalence over shuffled-subset logs, where the special
        // DAG miner may reject the log: the plain and the session form
        // must agree even on the error.
        let options = MinerOptions::default();
        prop_assert_eq!(
            edges_via_plain(&log, &options, threads),
            edges_via_sessions(&log, &options, threads)
        );
    }
}
