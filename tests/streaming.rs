//! Streaming-layer tests: the `--follow` pipeline (FlowmarkSource →
//! CaseAssembler → OnlineMiner) against batch mining.
//!
//! * proptest parity: on clean logs — with cases arbitrarily
//!   interleaved in the event stream — online mining produces the same
//!   edge set *and the same edge-support counts* as batch mining the
//!   materialized log;
//! * corruption fuzz: the interleaved assembler survives corrupted
//!   streams under all three `RecoveryPolicy` variants;
//! * eviction: memory stays bounded by the open-case window.

use procmine::log::stream::{
    AssemblerConfig, CaseAssembler, FlowmarkSource, Observer, StreamError, StreamSink,
};
use procmine::log::validate::AssemblyPolicy;
use procmine::log::{
    codec::flowmark, ActivityTable, EventKind, EventRecord, Execution, LogError, RecoveryPolicy,
    WorkflowLog,
};
use procmine::mine::{mine_general_dag, MinedModel, MinerOptions, OnlineMiner, SnapshotPolicy};
use proptest::prelude::*;

/// Strategy: a random log of executions over activities `A`..`J`
/// (shuffled subsets wrapped in fixed start/end activities — the same
/// shape as tests/properties.rs), paired with the seed that timed it.
///
/// The seed gives every activity instance an interval (§2, Def. 2):
/// instance `k` starts at `2k` and runs 0, 1, 2, 3 or 5 ticks, so it
/// may end before, at or after the starts of the next one or two
/// instances. Overlapping instances have no precedence pair, and
/// mining must see that in batch and in follow alike. No shrinking:
/// a failing case prints its seed.
fn arb_log(max_execs: usize) -> impl Strategy<Value = (WorkflowLog, u64)> {
    let activity_pool: Vec<String> = (b'B'..=b'I').map(|c| (c as char).to_string()).collect();
    let exec = proptest::sample::subsequence(activity_pool, 0..=8).prop_shuffle();
    (
        proptest::collection::vec(exec, 1..=max_execs),
        0u64..=u64::MAX,
    )
        .prop_map(|(execs, seed)| {
            let mut rng = seed;
            let mut records = Vec::new();
            for (i, middle) in execs.into_iter().enumerate() {
                let case = format!("p{i}");
                let names = std::iter::once("A".to_string())
                    .chain(middle)
                    .chain(std::iter::once("J".to_string()));
                for (k, name) in names.enumerate() {
                    let start = 2 * k as u64;
                    let duration = [0, 1, 2, 3, 5][(splitmix64(&mut rng) % 5) as usize];
                    records.push(EventRecord::start(&case, &name, start));
                    records.push(EventRecord::end(&case, &name, start + duration, None));
                }
            }
            (WorkflowLog::from_events(&records).unwrap(), seed)
        })
}

/// One SplitMix64 step: the timing stream drawn from a seed.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Serializes `log` as flowmark text with the cases *interleaved*:
/// `picks` decides, event slot by event slot, which still-unfinished
/// case contributes the next record. Within a case the events keep
/// time order (START before END at equal times), as a real audit trail
/// writes them; overlapping instances interleave their STARTs and ENDs.
fn interleaved_flowmark(log: &WorkflowLog, picks: &[usize]) -> String {
    let table = log.activities();
    let mut queues: Vec<Vec<EventRecord>> = log
        .executions()
        .iter()
        .map(|exec| {
            let mut events = Vec::new();
            for inst in exec.instances() {
                let name = table.name(inst.activity);
                events.push(EventRecord::start(&exec.id, name, inst.start));
                events.push(EventRecord::end(&exec.id, name, inst.end, None));
            }
            events.sort_by_key(|e| (e.time, e.kind == EventKind::End));
            events.reverse(); // pop() from the back = front of the case
            events
        })
        .collect();
    let mut out = String::new();
    let mut emit = |e: EventRecord| {
        let kind = match e.kind {
            EventKind::Start => "START",
            EventKind::End => "END",
        };
        out.push_str(&format!(
            "{},{},{},{}\n",
            e.process, e.activity, kind, e.time
        ));
    };
    for &pick in picks {
        // Choose among the still-non-empty queues, wrapping the pick.
        let live: Vec<usize> = (0..queues.len())
            .filter(|&i| !queues[i].is_empty())
            .collect();
        if live.is_empty() {
            break;
        }
        let q = live[pick % live.len()];
        if let Some(e) = queues[q].pop() {
            emit(e);
        }
    }
    for q in &mut queues {
        while let Some(e) = q.pop() {
            emit(e);
        }
    }
    out
}

/// Sorted `(from, to, support)` triples, names resolved so models with
/// different interning orders compare equal.
fn support_triples(model: &MinedModel) -> Vec<(String, String, u32)> {
    let mut triples: Vec<(String, String, u32)> = model
        .edge_support()
        .iter()
        .map(|&(u, v, c)| {
            let name = |i: usize| model.name_of(procmine::graph::NodeId::new(i)).to_string();
            (name(u), name(v), c)
        })
        .collect();
    triples.sort();
    triples
}

/// Runs the full follow pipeline over flowmark `text` and returns the
/// final model (plus executions absorbed).
fn mine_following(
    text: &str,
    policy: RecoveryPolicy,
    max_open_cases: usize,
) -> Result<(MinedModel, usize), StreamError> {
    let mut miner = OnlineMiner::new(MinerOptions::default(), SnapshotPolicy::on_demand());
    let mut source = FlowmarkSource::new(text.as_bytes(), policy);
    let mut assembler = CaseAssembler::new(
        AssemblerConfig {
            max_open_cases,
            assembly: if policy.is_strict() {
                AssemblyPolicy::Strict
            } else {
                AssemblyPolicy::Lenient
            },
        },
        |exec: &Execution, table: &ActivityTable| -> Result<(), StreamError> {
            // Tolerate miner rejections (corruption can fabricate
            // repeats) the way the CLI does: skip the case.
            let _ = miner.absorb(exec, table);
            Ok(())
        },
    );
    source.pump(&mut assembler)?;
    drop(assembler);
    let executions = miner.executions();
    let model = miner
        .snapshot()
        .map_err(|e| StreamError::Sink(Box::new(e)))?;
    Ok((model, executions))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Parity: online mining an interleaved stream == batch mining the
    /// materialized log — same edges, same support counts.
    #[test]
    fn follow_parity_with_batch(
        (log, seed) in arb_log(10),
        picks in proptest::collection::vec(0usize..64, 0..200),
    ) {
        let text = interleaved_flowmark(&log, &picks);
        let batch_log = flowmark::read_log(text.as_bytes()).unwrap();
        let batch = mine_general_dag(&batch_log, &MinerOptions::default()).unwrap();
        // Window comfortably above the interleaving depth: no complete
        // case is ever split.
        let (online, executions) =
            mine_following(&text, RecoveryPolicy::Strict, 1024).unwrap();
        prop_assert_eq!(executions, log.len(), "timing seed {}", seed);
        prop_assert_eq!(
            support_triples(&online),
            support_triples(&batch),
            "timing seed {}",
            seed
        );
    }

    /// The interleaved assembler survives corrupted streams under all
    /// three recovery policies: no panics, bounded behavior, and under
    /// `Skip` any give-up is the budget error.
    #[test]
    fn assembler_survives_corruption_under_all_policies(
        (log, _) in arb_log(6),
        picks in proptest::collection::vec(0usize..64, 0..100),
        rate_per_mille in 1u32..50,
        seed in 0u64..=u64::MAX,
    ) {
        use procmine::log::fault::{corrupt_bytes, FaultConfig};
        let clean = interleaved_flowmark(&log, &picks);
        let rate = f64::from(rate_per_mille) / 1000.0;
        let dirty = corrupt_bytes(clean.as_bytes(), &FaultConfig::bit_flips(rate, seed));
        let text = String::from_utf8_lossy(&dirty).into_owned();

        for policy in [
            RecoveryPolicy::Strict,
            RecoveryPolicy::Skip { max_errors: 4 },
            RecoveryPolicy::BestEffort,
        ] {
            match mine_following(&text, policy, 1024) {
                Ok(_) => {}
                Err(StreamError::Log(e)) => {
                    if let RecoveryPolicy::Skip { .. } = policy {
                        // Mid-stream give-up must be the budget error;
                        // only a corrupted *unterminated tail* may
                        // surface as UnexpectedEof instead.
                        prop_assert!(
                            matches!(
                                e,
                                LogError::TooManyErrors { .. } | LogError::UnexpectedEof { .. }
                            ),
                            "Skip surfaced {e:?}"
                        );
                    }
                }
                // Snapshot of an empty miner (everything corrupted away).
                Err(StreamError::Sink(_)) => {}
            }
        }
    }
}

/// Memory stays bounded by the open-case window: a horde of
/// never-completing cases cannot grow the assembler past the bound, and
/// each eviction is reported.
#[test]
fn eviction_bounds_memory_under_never_completing_cases() {
    const WINDOW: usize = 8;
    const CASES: usize = 100;
    let mut miner = OnlineMiner::new(MinerOptions::default(), SnapshotPolicy::on_demand());
    let mut assembler = CaseAssembler::new(
        AssemblerConfig {
            max_open_cases: WINDOW,
            assembly: AssemblyPolicy::Lenient,
        },
        |exec: &Execution, table: &ActivityTable| -> Result<(), StreamError> {
            miner
                .absorb(exec, table)
                .map(|_| ())
                .map_err(|e| StreamError::Sink(Box::new(e)))
        },
    );
    for i in 0..CASES {
        let case = format!("case-{i}");
        // One complete instance (salvageable) …
        assembler
            .on_event(EventRecord::start(&case, "A", 0), Default::default())
            .unwrap();
        assembler
            .on_event(EventRecord::end(&case, "A", 1, None), Default::default())
            .unwrap();
        // … and a START that never ends: the case stays open forever.
        assembler
            .on_event(EventRecord::start(&case, "B", 2), Default::default())
            .unwrap();
        assert!(
            assembler.open_cases() <= WINDOW,
            "open cases {} exceeded the window at case {i}",
            assembler.open_cases()
        );
    }
    assembler.finish().unwrap();
    let report = assembler.report().clone();
    assert_eq!(
        report.cases_evicted as usize,
        CASES - WINDOW,
        "every case beyond the window was evicted incomplete"
    );
    assert_eq!(
        report.records_skipped as usize, CASES,
        "each case drops exactly its dangling START"
    );
    drop(assembler);
    // Every salvaged fragment still reached the miner.
    assert_eq!(miner.executions(), CASES);
    let model = miner.snapshot().unwrap();
    assert_eq!(model.activity_count(), 1, "only the completed A survives");
}

/// An eviction callback fires for cases cut down by the memory bound.
#[test]
fn eviction_notices_reach_the_observer() {
    struct Notice {
        evicted: Vec<String>,
    }
    impl Observer for &mut Notice {
        fn on_execution(
            &mut self,
            _exec: &Execution,
            _table: &ActivityTable,
        ) -> Result<(), StreamError> {
            Ok(())
        }
        fn on_eviction(&mut self, case: &str, _buffered: usize) {
            self.evicted.push(case.to_string());
        }
    }
    let mut notice = Notice { evicted: vec![] };
    let mut assembler = CaseAssembler::new(
        AssemblerConfig {
            max_open_cases: 1,
            assembly: AssemblyPolicy::Lenient,
        },
        &mut notice,
    );
    assembler
        .on_event(EventRecord::start("p1", "A", 0), Default::default())
        .unwrap();
    assembler
        .on_event(EventRecord::start("p2", "A", 0), Default::default())
        .unwrap();
    assembler.finish().unwrap();
    drop(assembler);
    assert_eq!(notice.evicted, vec!["p1".to_string()]);
}
