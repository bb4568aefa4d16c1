//! Validation and assembly of raw event streams into executions.
//!
//! Real logs (the paper's §6) contain noise: unmatched events, activities
//! reported out of order, clock oddities. This module turns a flat,
//! possibly interleaved stream of [`EventRecord`]s into per-execution
//! [`Execution`] values, either strictly (any structural problem is an
//! error) or leniently (problems are dropped and reported as
//! diagnostics, letting the noise-tolerant miner see the rest).

use crate::{
    ActivityId, ActivityInstance, ActivityTable, EventKind, EventRecord, Execution, LogError,
};
use std::collections::{HashMap, VecDeque};
use std::ops::Range;

/// How [`assemble_executions_with`] treats structural problems.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AssemblyPolicy {
    /// Any unmatched START or END is an error.
    #[default]
    Strict,
    /// Unmatched events are skipped and reported as diagnostics.
    Lenient,
}

/// A non-fatal problem found while assembling a log leniently.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Diagnostic {
    /// An END with no open START (dropped).
    DanglingEnd {
        /// Execution name.
        execution: String,
        /// Activity name.
        activity: String,
        /// Event time.
        time: u64,
    },
    /// A START never closed (dropped).
    DanglingStart {
        /// Execution name.
        execution: String,
        /// Activity name.
        activity: String,
        /// Event time.
        time: u64,
    },
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Diagnostic::DanglingEnd {
                execution,
                activity,
                time,
            } => write!(
                f,
                "case `{execution}`: dropped END for `{activity}` at t={time} (no open START)"
            ),
            Diagnostic::DanglingStart {
                execution,
                activity,
                time,
            } => write!(
                f,
                "case `{execution}`: dropped START for `{activity}` at t={time} (never ended)"
            ),
        }
    }
}

/// Result of a lenient assembly: the usable executions plus diagnostics.
#[derive(Debug)]
pub struct AssemblyReport {
    /// Executions that could be assembled (empty ones are skipped).
    pub executions: Vec<Execution>,
    /// Problems encountered.
    pub diagnostics: Vec<Diagnostic>,
}

/// Strictly assembles `records` into executions, interning activity names
/// into `table`. Equivalent to
/// [`assemble_executions_with`]`(records, table, AssemblyPolicy::Strict)`.
pub fn assemble_executions(
    records: &[EventRecord],
    table: &mut ActivityTable,
) -> Result<Vec<Execution>, LogError> {
    Ok(assemble_executions_with(records, table, AssemblyPolicy::Strict)?.executions)
}

/// Assembles `records` into executions under the given policy.
///
/// Events are grouped by process name (executions keep the order of their
/// first event) and sorted by timestamp within each group (stable, so
/// equal timestamps keep log order — in particular a START logged before
/// an END at the same instant pairs correctly). An END closes the
/// earliest open START of the same activity. Activity names are interned
/// into `table` at their first START in that grouped, time-sorted order.
/// Within a case, dangling ENDs are reported in that order first, then
/// STARTs that never ended, in time order (ties in log order).
pub fn assemble_executions_with(
    records: &[EventRecord],
    table: &mut ActivityTable,
    policy: AssemblyPolicy,
) -> Result<AssemblyReport, LogError> {
    let mut events = CompactEvents::default();
    for r in records {
        events.push(&r.process, &r.activity, r.kind, r.time, r.output.as_deref())?;
    }
    let mut out = Assembled::default();
    events.assemble(table, policy, &mut out)?;
    Ok(AssemblyReport {
        executions: out.executions,
        diagnostics: out.diagnostics.into_iter().map(|(_, d)| d).collect(),
    })
}

/// Marks an absent id or record index: no output vector, a local
/// activity not yet mapped to a table id, a START not yet closed.
const NONE: u32 = u32::MAX;

/// One event in the compact form the assembly core pairs: the case and
/// activity as interned `u32` ids and the output vector as an index
/// into a side pool, so an event costs 24 bytes and no heap allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactEvent {
    /// Event timestamp.
    pub(crate) time: u64,
    /// Case id, in order of the case's first event.
    pub(crate) case: u32,
    /// Activity id, local to the events being assembled.
    pub(crate) activity: u32,
    /// Index of the output vector, or `u32::MAX` for none.
    pub(crate) output: u32,
    /// START or END.
    pub(crate) kind: EventKind,
}

/// Events of any number of cases in compact form, with their case and
/// activity names interned and their output vectors pooled: what the
/// batch Flowmark reader decodes into, and what the slice adapters
/// ([`assemble_executions_with`], [`WorkflowLog::from_events`]) convert
/// records to before assembly.
///
/// [`WorkflowLog::from_events`]: crate::WorkflowLog::from_events
#[derive(Debug, Default)]
pub(crate) struct CompactEvents {
    events: Vec<CompactEvent>,
    /// Case names, interned like activity names.
    cases: ActivityTable,
    /// Activity names in order of first appearance: the local ids.
    activities: ActivityTable,
    /// Output vectors back to back; vector `k` is
    /// `output_values[output_spans[k]]`.
    output_values: Vec<i64>,
    output_spans: Vec<Range<usize>>,
}

impl CompactEvents {
    /// Number of events pushed.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Appends one event. Fails only past `u32::MAX - 1` events, where
    /// event indices would no longer fit a `u32`.
    pub fn push(
        &mut self,
        case: &str,
        activity: &str,
        kind: EventKind,
        time: u64,
        output: Option<&[i64]>,
    ) -> Result<(), LogError> {
        check_capacity(self.events.len() + 1)?;
        let output = match output {
            Some(values) => {
                let start = self.output_values.len();
                self.output_values.extend_from_slice(values);
                self.output_spans.push(start..self.output_values.len());
                (self.output_spans.len() - 1) as u32
            }
            None => NONE,
        };
        // A batch log's cases are contiguous: most lines repeat the
        // previous line's case, and skip the hash lookup.
        let case = match self.events.last() {
            Some(prev) if self.cases.name(ActivityId(prev.case)) == case => prev.case,
            _ => self.cases.intern(case).0,
        };
        self.events.push(CompactEvent {
            time,
            case,
            activity: self.activities.intern(activity).0,
            output,
            kind,
        });
        Ok(())
    }

    /// Assembles every case into `out` (see [`assemble_core`]).
    pub fn assemble(
        &self,
        table: &mut ActivityTable,
        policy: AssemblyPolicy,
        out: &mut Assembled,
    ) -> Result<(), LogError> {
        assemble_core(self, table, policy, &mut AssemblyScratch::default(), out)
    }
}

impl CaseEvents for CompactEvents {
    fn events(&self) -> &[CompactEvent] {
        &self.events
    }

    fn cases(&self) -> usize {
        self.cases.len()
    }

    fn case_name(&self, case: u32) -> &str {
        self.cases.name(ActivityId(case))
    }

    fn activity_slots(&self) -> usize {
        self.activities.len()
    }

    fn activity_name(&self, record: usize) -> &str {
        self.activities
            .name(ActivityId(self.events[record].activity))
    }

    fn output(&self, record: usize) -> Option<Vec<i64>> {
        let span = self.output_spans.get(self.events[record].output as usize)?;
        Some(self.output_values[span.clone()].to_vec())
    }
}

/// Event indices are `u32`s, `NONE` excluded.
fn check_capacity(events: usize) -> Result<(), LogError> {
    if events >= NONE as usize {
        return Err(LogError::Parse {
            line: 0,
            message: format!("more than {} events in one log", NONE - 1),
        });
    }
    Ok(())
}

/// What [`assemble_core`] reads: compact events in log order, plus the
/// names and outputs behind their ids.
trait CaseEvents {
    /// The events, in log order.
    fn events(&self) -> &[CompactEvent];
    /// Number of case ids; ids are in order of the case's first event.
    fn cases(&self) -> usize;
    fn case_name(&self, case: u32) -> &str;
    /// Number of local activity ids.
    fn activity_slots(&self) -> usize;
    /// Local activity ids below this are already ids of the target
    /// [`ActivityTable`]; the rest are mapped at their first START.
    fn resolved_activities(&self) -> u32 {
        0
    }
    /// The activity name of the event at `record`.
    fn activity_name(&self, record: usize) -> &str;
    /// The output vector of the event at `record`.
    fn output(&self, record: usize) -> Option<Vec<i64>>;
}

/// The executions and located diagnostics of one assembly.
#[derive(Debug, Default)]
pub(crate) struct Assembled {
    /// Assembled executions, in order of their case's first event.
    pub executions: Vec<Execution>,
    /// Each diagnostic with the index of the event it is about, in the
    /// order [`assemble_executions_with`] documents.
    pub diagnostics: Vec<(usize, Diagnostic)>,
}

/// A START waiting for, or closed by, its END.
#[derive(Debug, Clone, Copy)]
struct OpenInstance {
    local: u32,
    activity: ActivityId,
    start: u32,
    end: u32,
}

/// Buffers [`assemble_core`] reuses from call to call.
#[derive(Debug, Default)]
struct AssemblyScratch {
    /// Case `c`'s events are `order[starts[c]..starts[c + 1]]`.
    starts: Vec<u32>,
    /// Event indices grouped by case, log order within a case.
    order: Vec<u32>,
    /// Table id of each unresolved local activity, `NONE` until its
    /// first START.
    mapped: Vec<u32>,
    /// Open instances per local activity, FIFO; empty between cases.
    queues: Vec<VecDeque<u32>>,
    /// The current case's instances, in time order of their STARTs.
    instances: Vec<OpenInstance>,
    /// Set while a call runs: a call that failed may leave queues
    /// non-empty, and the next one clears them.
    dirty: bool,
}

/// The one START/END pairing core.
///
/// Groups the events by case with a stable counting sort (cases in
/// order of their first event), stable-sorts a case by time only when
/// its events are out of order, and pairs each END with the earliest
/// open START of its activity through per-activity FIFO queues.
/// Activity names are interned into `table` at their first START in
/// that grouped, time-sorted order. Under [`AssemblyPolicy::Strict`]
/// the first dangling END, or else the earliest START that never
/// ended, is the error; under [`AssemblyPolicy::Lenient`] each becomes
/// a located diagnostic in `out` and its event is dropped, and a case
/// left with no instance is skipped.
fn assemble_core(
    src: &impl CaseEvents,
    table: &mut ActivityTable,
    policy: AssemblyPolicy,
    scratch: &mut AssemblyScratch,
    out: &mut Assembled,
) -> Result<(), LogError> {
    let events = src.events();
    let AssemblyScratch {
        starts,
        order,
        mapped,
        queues,
        instances,
        dirty,
    } = scratch;
    if std::mem::replace(dirty, true) {
        queues.iter_mut().for_each(VecDeque::clear);
    }
    let cases = src.cases();
    group_by_case(events, cases, starts, order);
    let resolved = src.resolved_activities();
    let slots = src.activity_slots();
    mapped.clear();
    mapped.resize(slots.saturating_sub(resolved as usize), NONE);
    if queues.len() < slots {
        queues.resize_with(slots, VecDeque::new);
    }
    for case in 0..cases {
        let ids = &mut order[starts[case] as usize..starts[case + 1] as usize];
        if ids
            .windows(2)
            .any(|w| events[w[0] as usize].time > events[w[1] as usize].time)
        {
            ids.sort_by_key(|&i| events[i as usize].time); // stable
        }
        instances.clear();
        for &i in ids.iter() {
            let e = events[i as usize];
            match e.kind {
                EventKind::Start => {
                    let activity = if e.activity < resolved {
                        ActivityId(e.activity)
                    } else {
                        let slot = &mut mapped[(e.activity - resolved) as usize];
                        if *slot == NONE {
                            *slot = table.intern(src.activity_name(i as usize)).0;
                        }
                        ActivityId(*slot)
                    };
                    queues[e.activity as usize].push_back(instances.len() as u32);
                    instances.push(OpenInstance {
                        local: e.activity,
                        activity,
                        start: i,
                        end: NONE,
                    });
                }
                EventKind::End => match queues[e.activity as usize].pop_front() {
                    Some(k) => instances[k as usize].end = i,
                    None => {
                        let execution = src.case_name(case as u32).to_string();
                        let activity = src.activity_name(i as usize).to_string();
                        let time = e.time;
                        match policy {
                            AssemblyPolicy::Strict => {
                                return Err(LogError::UnmatchedEnd {
                                    execution,
                                    activity,
                                    time,
                                })
                            }
                            AssemblyPolicy::Lenient => out.diagnostics.push((
                                i as usize,
                                Diagnostic::DanglingEnd {
                                    execution,
                                    activity,
                                    time,
                                },
                            )),
                        }
                    }
                },
            }
        }

        // Closed instances make the execution; STARTs never closed are
        // dangling, reported in time order.
        let mut closed = Vec::with_capacity(instances.len());
        for inst in instances.iter() {
            if inst.end != NONE {
                closed.push(ActivityInstance {
                    activity: inst.activity,
                    start: events[inst.start as usize].time,
                    end: events[inst.end as usize].time,
                    output: src.output(inst.end as usize),
                });
                continue;
            }
            queues[inst.local as usize].clear();
            let execution = src.case_name(case as u32).to_string();
            let activity = src.activity_name(inst.start as usize).to_string();
            let time = events[inst.start as usize].time;
            match policy {
                AssemblyPolicy::Strict => {
                    return Err(LogError::UnmatchedStart {
                        execution,
                        activity,
                        time,
                    })
                }
                AssemblyPolicy::Lenient => out.diagnostics.push((
                    inst.start as usize,
                    Diagnostic::DanglingStart {
                        execution,
                        activity,
                        time,
                    },
                )),
            }
        }
        if !closed.is_empty() {
            out.executions
                .push(Execution::new(src.case_name(case as u32), closed)?);
        }
    }
    *dirty = false;
    Ok(())
}

/// Stable counting sort of event indices by case id: fills `order` with
/// the indices grouped by case (log order within a case) and `starts`
/// with each case's offset into it, plus the total at the end.
fn group_by_case(
    events: &[CompactEvent],
    cases: usize,
    starts: &mut Vec<u32>,
    order: &mut Vec<u32>,
) {
    starts.clear();
    starts.resize(cases + 1, 0);
    for e in events {
        starts[e.case as usize + 1] += 1;
    }
    for c in 0..cases {
        starts[c + 1] += starts[c];
    }
    order.clear();
    order.resize(events.len(), 0);
    // `starts[c]` walks case c's range, ending at case c + 1's start...
    for (i, e) in events.iter().enumerate() {
        let slot = &mut starts[e.case as usize];
        order[*slot as usize] = i as u32;
        *slot += 1;
    }
    // ...so shifting it right by one restores the offsets.
    starts.copy_within(0..cases, 1);
    starts[0] = 0;
}

/// Reusable per-case assembly: the adapter [`CaseAssembler`] closes
/// each case through. Its buffers persist, so closing a case allocates
/// only the delivered [`Execution`] (and its diagnostics).
///
/// [`CaseAssembler`]: crate::stream::CaseAssembler
#[derive(Debug, Default)]
pub(crate) struct CaseScratch {
    events: Vec<CompactEvent>,
    core: AssemblyScratch,
    out: Assembled,
}

impl CaseScratch {
    /// Assembles one case's `records` (all of case `name`) under
    /// `policy`, interning new activity names into `table`. Diagnostic
    /// indices point into `records`.
    pub fn assemble(
        &mut self,
        name: &str,
        records: &[EventRecord],
        table: &mut ActivityTable,
        policy: AssemblyPolicy,
    ) -> Result<&mut Assembled, LogError> {
        check_capacity(records.len())?;
        self.out.executions.clear();
        self.out.diagnostics.clear();
        self.events.clear();
        // Names the table knows keep their table id; the others get
        // case-local ids above it, mapped at their first START.
        let resolved = table.len() as u32;
        let mut unknown: HashMap<&str, u32> = HashMap::new();
        for r in records {
            let activity = match table.id(&r.activity) {
                Some(id) => id.0,
                None => {
                    let next = resolved + unknown.len() as u32;
                    *unknown.entry(&r.activity).or_insert(next)
                }
            };
            self.events.push(CompactEvent {
                time: r.time,
                case: 0,
                activity,
                output: NONE,
                kind: r.kind,
            });
        }
        let case = OneCase {
            name,
            records,
            events: &self.events,
            resolved,
            slots: resolved as usize + unknown.len(),
        };
        assemble_core(&case, table, policy, &mut self.core, &mut self.out)?;
        Ok(&mut self.out)
    }
}

/// One case's records seen through [`CaseEvents`].
struct OneCase<'a> {
    name: &'a str,
    records: &'a [EventRecord],
    events: &'a [CompactEvent],
    resolved: u32,
    slots: usize,
}

impl CaseEvents for OneCase<'_> {
    fn events(&self) -> &[CompactEvent] {
        self.events
    }

    fn cases(&self) -> usize {
        1
    }

    fn case_name(&self, _case: u32) -> &str {
        self.name
    }

    fn activity_slots(&self) -> usize {
        self.slots
    }

    fn resolved_activities(&self) -> u32 {
        self.resolved
    }

    fn activity_name(&self, record: usize) -> &str {
        &self.records[record].activity
    }

    fn output(&self, record: usize) -> Option<Vec<i64>> {
        self.records[record].output.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strict_rejects_dangling_end() {
        let records = vec![EventRecord::end("p", "A", 3, None)];
        let mut t = ActivityTable::new();
        assert!(matches!(
            assemble_executions(&records, &mut t),
            Err(LogError::UnmatchedEnd { .. })
        ));
    }

    #[test]
    fn strict_rejects_dangling_start() {
        let records = vec![
            EventRecord::start("p", "A", 0),
            EventRecord::end("p", "A", 1, None),
            EventRecord::start("p", "B", 2),
        ];
        let mut t = ActivityTable::new();
        assert!(matches!(
            assemble_executions(&records, &mut t),
            Err(LogError::UnmatchedStart { .. })
        ));
    }

    #[test]
    fn lenient_drops_and_reports() {
        let records = vec![
            EventRecord::end("p", "Z", 0, None), // dangling END
            EventRecord::start("p", "A", 1),
            EventRecord::end("p", "A", 2, None),
            EventRecord::start("p", "B", 3), // dangling START
        ];
        let mut t = ActivityTable::new();
        let report = assemble_executions_with(&records, &mut t, AssemblyPolicy::Lenient).unwrap();
        assert_eq!(report.executions.len(), 1);
        assert_eq!(report.executions[0].len(), 1);
        assert_eq!(report.diagnostics.len(), 2);
    }

    #[test]
    fn events_sorted_by_time_within_execution() {
        // Out-of-order delivery: B's events logged before A's, but A ran first.
        let records = vec![
            EventRecord::start("p", "B", 10),
            EventRecord::end("p", "B", 11, None),
            EventRecord::start("p", "A", 0),
            EventRecord::end("p", "A", 1, None),
        ];
        let mut t = ActivityTable::new();
        let execs = assemble_executions(&records, &mut t).unwrap();
        assert_eq!(execs[0].display(&t), "A B");
    }

    #[test]
    fn concurrent_instances_of_same_activity_pair_fifo() {
        // Two overlapping instances of A: starts at 0 and 2, ends at 3 and 5.
        // FIFO pairing gives [0,3] and [2,5].
        let records = vec![
            EventRecord::start("p", "A", 0),
            EventRecord::start("p", "A", 2),
            EventRecord::end("p", "A", 3, Some(vec![1])),
            EventRecord::end("p", "A", 5, Some(vec![2])),
        ];
        let mut t = ActivityTable::new();
        let execs = assemble_executions(&records, &mut t).unwrap();
        let inst = execs[0].instances();
        assert_eq!((inst[0].start, inst[0].end), (0, 3));
        assert_eq!(inst[0].output.as_deref(), Some(&[1i64][..]));
        assert_eq!((inst[1].start, inst[1].end), (2, 5));
    }

    /// Four STARTs that never end, logged out of time order: every run
    /// reports them in time order (ties in log order), and the strict
    /// error names the earliest.
    #[test]
    fn dangling_starts_are_reported_in_time_order() {
        let records = vec![
            EventRecord::start("p", "Y", 4),
            EventRecord::start("p", "W", 1),
            EventRecord::start("p", "Q", 3),
            EventRecord::start("p", "A", 0),
            EventRecord::end("p", "A", 2, None),
            EventRecord::start("p", "K", 3),
            EventRecord::start("p", "B", 5),
        ];
        let expected: Vec<String> = [("W", 1), ("Q", 3), ("K", 3), ("Y", 4), ("B", 5)]
            .iter()
            .map(|(a, t)| format!("case `p`: dropped START for `{a}` at t={t} (never ended)"))
            .collect();
        for run in 0..64 {
            let mut t = ActivityTable::new();
            let report =
                assemble_executions_with(&records, &mut t, AssemblyPolicy::Lenient).unwrap();
            let got: Vec<String> = report.diagnostics.iter().map(|d| d.to_string()).collect();
            assert_eq!(got, expected, "run {run}");
            match assemble_executions(&records, &mut ActivityTable::new()) {
                Err(LogError::UnmatchedStart { activity, time, .. }) => {
                    assert_eq!((activity.as_str(), time), ("W", 1), "run {run}")
                }
                other => panic!("run {run}: expected UnmatchedStart, got {other:?}"),
            }
        }
    }

    #[test]
    fn lenient_skips_fully_dropped_execution() {
        let records = vec![
            EventRecord::end("ghost", "A", 0, None),
            EventRecord::start("real", "A", 0),
            EventRecord::end("real", "A", 1, None),
        ];
        let mut t = ActivityTable::new();
        let report = assemble_executions_with(&records, &mut t, AssemblyPolicy::Lenient).unwrap();
        assert_eq!(report.executions.len(), 1);
        assert_eq!(report.executions[0].id, "real");
    }
}
