//! The benchmark's workloads and their seeded inputs.
//!
//! Every input is a Flowmark event log generated from the workload's
//! seed: the same seed gives byte-identical bytes. Set-up also mines the
//! generated log with the retained reference miner, so a run can check
//! the program's model against an answer it did not compute itself.

use procmine_core::reference::mine_general_reference;
use procmine_core::MinerOptions;
use procmine_log::codec::flowmark;
use procmine_log::{EventKind, WorkflowLog};
use procmine_sim::{presets, randdag, walk, ProcessModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::error::Error;

/// Which command a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `mine --check`: ingest, mine, route analytics, gateways,
    /// rendering, conformance replay.
    Batch,
    /// `mine --follow --checkpoint`: stream decode, case assembly,
    /// online mining with periodic snapshots and checkpoint saves.
    Follow,
}

/// The process graph the §8.1 random walk runs over.
#[derive(Debug, Clone, Copy)]
pub enum Graph {
    /// The paper's Graph10 (Figure 7).
    Graph10,
    /// A random single-source, single-sink DAG, drawn from its own
    /// fixed seed: the workload's seed varies the walks, not the graph,
    /// because two random graphs of one size can differ twofold in
    /// mined edges and run time.
    RandomDag {
        vertices: usize,
        edge_prob: f64,
        graph_seed: u64,
    },
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub mode: Mode,
    pub graph: Graph,
    pub executions: usize,
    /// Follow only: at most this many cases are open (started, not yet
    /// finished) at any point of the file. Batch logs keep each case's
    /// events together, so one case is open at a time.
    pub open_cases: usize,
}

/// Follow settings, as `mine --follow` flags: `--max-open-cases`,
/// `--snapshot-every` and `--checkpoint-every`.
pub const MAX_OPEN_CASES: usize = 1024;
pub const SNAPSHOT_EVERY: u64 = 10_000;
pub const CHECKPOINT_EVERY: u64 = 100_000;

pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "batch-g10",
        mode: Mode::Batch,
        graph: Graph::Graph10,
        executions: 100_000,
        open_cases: 1,
    },
    Spec {
        name: "batch-rw200",
        mode: Mode::Batch,
        graph: Graph::RandomDag {
            vertices: 200,
            edge_prob: 0.05,
            graph_seed: 1,
        },
        executions: 20_000,
        open_cases: 1,
    },
    Spec {
        name: "follow-g10",
        mode: Mode::Follow,
        graph: Graph::Graph10,
        executions: 20_000,
        open_cases: 512,
    },
];

pub fn lookup(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A generated input: the log as generated, and its Flowmark bytes.
pub struct Input {
    pub log: WorkflowLog,
    pub bytes: Vec<u8>,
}

/// Generates the workload's input from `seed`.
pub fn generate(spec: &Spec, seed: u64) -> Result<Input, Box<dyn Error>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let model: ProcessModel = match spec.graph {
        Graph::Graph10 => presets::graph10(),
        Graph::RandomDag {
            vertices,
            edge_prob,
            graph_seed,
        } => randdag::random_dag(
            &randdag::RandomDagConfig {
                vertices,
                edge_prob,
            },
            &mut StdRng::seed_from_u64(graph_seed),
        )?,
    };
    let log = walk::random_walk_log(&model, spec.executions, &mut rng)?;
    let mut bytes = Vec::new();
    match spec.mode {
        Mode::Batch => flowmark::write_log(&log, &mut bytes)?,
        Mode::Follow => {
            let cases: Vec<Vec<String>> = log
                .executions()
                .iter()
                .map(|exec| execution_lines(&log, exec))
                .collect();
            for (_, line) in interleave(cases, spec.open_cases, &mut rng) {
                bytes.extend_from_slice(line.as_bytes());
            }
        }
    }
    Ok(Input { log, bytes })
}

/// One execution's Flowmark lines in the order the codec writes them:
/// by time, START before END at equal times.
fn execution_lines(log: &WorkflowLog, exec: &procmine_log::Execution) -> Vec<String> {
    let mut events: Vec<(u64, EventKind, &str)> = Vec::with_capacity(exec.len() * 2);
    for inst in exec.instances() {
        let name = log.activities().name(inst.activity);
        events.push((inst.start, EventKind::Start, name));
        events.push((inst.end, EventKind::End, name));
    }
    events.sort_by_key(|&(time, kind, _)| (time, matches!(kind, EventKind::End)));
    events
        .into_iter()
        .map(|(time, kind, name)| format!("{},{name},{kind},{time}\n", exec.id))
        .collect()
}

/// Interleaves the cases' event sequences in blocks of `max_open`
/// consecutive cases: within a block, each step emits the next event of
/// a randomly chosen unfinished case, so each case's events keep their
/// order and at most `max_open` cases are open at once. Between two
/// events of one case only the other cases of its block appear, so a
/// least-recently-used window of more than `max_open` cases (the follow
/// assembler's `--max-open-cases`) never closes a case before its last
/// event. Returns `(case index, event)` pairs.
pub fn interleave<T, R: Rng>(cases: Vec<Vec<T>>, max_open: usize, rng: &mut R) -> Vec<(usize, T)> {
    assert!(max_open > 0, "at least one case must be open");
    let mut out = Vec::with_capacity(cases.iter().map(Vec::len).sum());
    let mut cases = cases.into_iter().map(Vec::into_iter).enumerate().peekable();
    while cases.peek().is_some() {
        let mut open: Vec<_> = cases.by_ref().take(max_open).collect();
        while !open.is_empty() {
            let pick = rng.gen_range(0..open.len());
            match open[pick].1.next() {
                Some(event) => out.push((open[pick].0, event)),
                None => {
                    open.swap_remove(pick);
                }
            }
        }
    }
    out
}

/// A model's edges with their supports, by activity name.
pub type Edges = Vec<(String, String, u32)>;

/// The reference answer: every edge of the reference miner's model with
/// its support, by activity name, sorted.
pub fn reference_edges(log: &WorkflowLog) -> Result<Edges, Box<dyn Error>> {
    let (model, _) = mine_general_reference(log, &MinerOptions::with_threshold(1))?;
    Ok(named_support(&model))
}

/// A model's edges with their supports, by activity name, sorted.
pub fn named_support(model: &procmine_core::MinedModel) -> Edges {
    let g = model.graph();
    let mut edges: Edges = model
        .edge_support()
        .iter()
        .map(|&(u, v, c)| {
            (
                g.node(procmine_graph::NodeId::new(u)).clone(),
                g.node(procmine_graph::NodeId::new(v)).clone(),
                c,
            )
        })
        .collect();
    edges.sort();
    edges
}

/// Distinct start-ordered shapes over executions. A shape is the
/// activity sequence in start order together with the rank of every
/// start and end time in the execution, which fixes each pairwise
/// `end_i < start_j` relation.
pub fn shape_ratio(log: &WorkflowLog) -> f64 {
    let mut shapes = HashSet::new();
    for exec in log.executions() {
        let mut times: Vec<u64> = exec
            .instances()
            .iter()
            .flat_map(|i| [i.start, i.end])
            .collect();
        times.sort_unstable();
        times.dedup();
        let rank = |t: u64| times.partition_point(|&x| x < t);
        let shape: Vec<(usize, usize, usize)> = exec
            .instances()
            .iter()
            .map(|i| (i.activity.index(), rank(i.start), rank(i.end)))
            .collect();
        shapes.insert(shape);
    }
    shapes.len() as f64 / log.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn small(spec: &Spec) -> Spec {
        Spec {
            executions: 300,
            open_cases: spec.open_cases.min(16),
            ..*spec
        }
    }

    #[test]
    fn same_seed_gives_byte_identical_input() {
        for spec in &WORKLOADS {
            let spec = small(spec);
            let a = generate(&spec, 7).unwrap().bytes;
            let b = generate(&spec, 7).unwrap().bytes;
            let c = generate(&spec, 8).unwrap().bytes;
            assert_eq!(a, b, "{}: same seed, different bytes", spec.name);
            assert_ne!(a, c, "{}: different seeds, same bytes", spec.name);
        }
    }

    #[test]
    fn interleave_keeps_case_order_and_open_bound() {
        let mut rng = StdRng::seed_from_u64(3);
        let cases: Vec<Vec<(usize, usize)>> = (0..200)
            .map(|c| (0..1 + c % 9).map(|i| (c, i)).collect())
            .collect();
        let expected: usize = cases.iter().map(Vec::len).sum();
        for max_open in [1, 2, 7, 64, 500] {
            let out = interleave(cases.clone(), max_open, &mut rng);
            assert_eq!(out.len(), expected);
            let mut next: HashMap<usize, usize> = HashMap::new();
            let mut open = HashSet::new();
            // The follow assembler's window: least recently used first out.
            let window = max_open + 1;
            let mut lru: HashMap<usize, usize> = HashMap::new();
            for (tick, (case, (c, i))) in out.into_iter().enumerate() {
                assert_eq!(case, c);
                let want = next.entry(c).or_insert(0);
                assert_eq!(i, *want, "case {c} out of order");
                *want += 1;
                open.insert(c);
                assert!(open.len() <= max_open, "{} open > {max_open}", open.len());
                if *want == cases[c].len() {
                    open.remove(&c);
                }
                if !lru.contains_key(&c) && lru.len() == window {
                    let (&victim, _) = lru.iter().min_by_key(|&(_, &t)| t).unwrap();
                    lru.remove(&victim);
                    assert_eq!(
                        next[&victim],
                        cases[victim].len(),
                        "case {victim} evicted while open"
                    );
                }
                lru.insert(c, tick);
            }
        }
    }

    #[test]
    fn follow_input_is_the_batch_log_interleaved() {
        let spec = small(lookup("follow-g10").unwrap());
        let input = generate(&spec, 11).unwrap();
        let parsed = flowmark::read_log(&input.bytes[..]).unwrap();
        assert_eq!(parsed.len(), spec.executions);
        let mut expected = input.log.display_sequences();
        let mut got = parsed.display_sequences();
        expected.sort();
        got.sort();
        assert_eq!(got, expected);
        let first_case = |bytes: &[u8]| bytes.split(|&b| b == b',').next().map(<[u8]>::to_vec);
        let lines: Vec<&[u8]> = input.bytes.split(|&b| b == b'\n').collect();
        let distinct_leads: HashSet<_> = lines
            .iter()
            .take(64)
            .filter_map(|l| first_case(l))
            .collect();
        assert!(distinct_leads.len() > 1, "follow input is not interleaved");
    }
}
