//! The [`WorkflowLog`]: a set of executions over a shared activity table.

use crate::validate::assemble_executions;
use crate::{ActivityId, ActivityTable, EventRecord, Execution, LogError};
use serde::{Deserialize, Serialize};

/// A log of `m` executions of the same process, sharing one
/// [`ActivityTable`]. This is the input to all mining algorithms.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct WorkflowLog {
    activities: ActivityTable,
    executions: Vec<Execution>,
}

impl WorkflowLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a log with a pre-populated activity table (useful when the
    /// activity universe is known up front, as in the Flowmark schema
    /// described in the paper's introduction).
    pub fn with_activities(activities: ActivityTable) -> Self {
        WorkflowLog {
            activities,
            executions: Vec::new(),
        }
    }

    /// A log of `executions` whose activity ids come from `activities`.
    pub(crate) fn from_parts(activities: ActivityTable, executions: Vec<Execution>) -> Self {
        WorkflowLog {
            activities,
            executions,
        }
    }

    /// The activity table.
    pub fn activities(&self) -> &ActivityTable {
        &self.activities
    }

    /// Interns an activity name into this log's table, returning its
    /// id. Use when building executions by hand or merging logs.
    pub fn intern_activity(&mut self, name: &str) -> ActivityId {
        self.activities.intern(name)
    }

    /// The executions, in insertion order.
    pub fn executions(&self) -> &[Execution] {
        &self.executions
    }

    /// Number of executions (`m` in the paper).
    pub fn len(&self) -> usize {
        self.executions.len()
    }

    /// `true` if the log has no executions.
    pub fn is_empty(&self) -> bool {
        self.executions.is_empty()
    }

    /// Appends an already-built execution. The caller must have interned
    /// its activity ids in this log's table.
    pub fn push(&mut self, execution: Execution) {
        self.executions.push(execution);
    }

    /// Appends an execution given as a sequence of activity names
    /// (instantaneous form). The execution is named `exec-<k>`.
    pub fn push_sequence<S: AsRef<str>>(&mut self, names: &[S]) -> Result<(), LogError> {
        let ids: Vec<ActivityId> = names
            .iter()
            .map(|n| self.activities.intern(n.as_ref()))
            .collect();
        let id = format!("exec-{}", self.executions.len());
        self.executions.push(Execution::from_ids(id, &ids)?);
        Ok(())
    }

    /// Builds a log from a collection of name sequences. Each activity
    /// name becomes one instantaneous instance; `["A","B","C"]` is the
    /// paper's execution string `ABC`.
    ///
    /// ```
    /// use procmine_log::WorkflowLog;
    /// let log = WorkflowLog::from_sequences([["A","B","E"], ["A","C","E"]]).unwrap();
    /// assert_eq!(log.len(), 2);
    /// ```
    pub fn from_sequences<I, E, S>(seqs: I) -> Result<Self, LogError>
    where
        I: IntoIterator<Item = E>,
        E: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut log = WorkflowLog::new();
        for seq in seqs {
            let names: Vec<String> = seq.into_iter().map(|s| s.as_ref().to_string()).collect();
            log.push_sequence(&names)?;
        }
        Ok(log)
    }

    /// Builds a log from compact execution strings where every activity
    /// is a single character: `"ABCE"` ≡ `["A","B","C","E"]`. This is the
    /// notation used throughout the paper's examples.
    pub fn from_strings<I, S>(strings: I) -> Result<Self, LogError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut log = WorkflowLog::new();
        for s in strings {
            let names: Vec<String> = s.as_ref().chars().map(|c| c.to_string()).collect();
            log.push_sequence(&names)?;
        }
        Ok(log)
    }

    /// Builds a log from raw event records, grouping by process name and
    /// pairing START/END events (see [`crate::validate`] for the rules).
    /// Executions appear in order of their first event.
    pub fn from_events(records: &[EventRecord]) -> Result<Self, LogError> {
        let mut log = WorkflowLog::new();
        let executions = assemble_executions(records, &mut log.activities)?;
        log.executions = executions;
        Ok(log)
    }

    /// The maximum number of times any activity repeats within one
    /// execution (`k` in Theorem 6); 1 for repeat-free logs, 0 for an
    /// empty log.
    pub fn max_repeats(&self) -> usize {
        let n = self.activities.len();
        let mut max = 0usize;
        let mut counts = vec![0usize; n];
        for e in &self.executions {
            counts[..n].fill(0);
            for a in e.sequence() {
                counts[a.index()] += 1;
                max = max.max(counts[a.index()]);
            }
        }
        max
    }

    /// `true` if every activity of the table appears in every execution —
    /// the precondition of Algorithm 1 (Special DAG).
    pub fn every_activity_in_every_execution(&self) -> bool {
        let n = self.activities.len();
        self.executions.iter().all(|e| {
            let mut seen = vec![false; n];
            for a in e.sequence() {
                seen[a.index()] = true;
            }
            seen.iter().all(|&s| s)
        })
    }

    /// `true` if any execution repeats an activity (indicating cycles —
    /// Algorithm 3 territory).
    pub fn has_repeats(&self) -> bool {
        self.executions.iter().any(Execution::has_repeats)
    }

    /// Renders each execution as a name string, for debugging and tests.
    pub fn display_sequences(&self) -> Vec<String> {
        self.executions
            .iter()
            .map(|e| e.display(&self.activities))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_strings_matches_paper_notation() {
        let log = WorkflowLog::from_strings(["ABCE", "ACDE", "ADBE"]).unwrap();
        assert_eq!(log.len(), 3);
        assert_eq!(log.activities().len(), 5);
        assert_eq!(
            log.display_sequences(),
            vec!["A B C E", "A C D E", "A D B E"]
        );
        assert!(!log.has_repeats());
        assert_eq!(log.max_repeats(), 1);
        assert!(!log.every_activity_in_every_execution());
    }

    #[test]
    fn special_dag_precondition_detection() {
        let log = WorkflowLog::from_strings(["ABCDE", "ACDBE", "ACBDE"]).unwrap();
        assert!(log.every_activity_in_every_execution());
    }

    #[test]
    fn repeats_detected() {
        let log = WorkflowLog::from_strings(["ABDCE", "ABDCBCE"]).unwrap();
        assert!(log.has_repeats());
        assert_eq!(log.max_repeats(), 2);
    }

    #[test]
    fn from_events_groups_by_process() {
        let records = vec![
            EventRecord::start("p1", "A", 0),
            EventRecord::end("p1", "A", 1, Some(vec![3])),
            EventRecord::start("p2", "A", 0),
            EventRecord::start("p1", "B", 2),
            EventRecord::end("p2", "A", 5, None),
            EventRecord::end("p1", "B", 3, None),
        ];
        let log = WorkflowLog::from_events(&records).unwrap();
        assert_eq!(log.len(), 2);
        assert_eq!(log.executions()[0].id, "p1");
        assert_eq!(log.executions()[0].len(), 2);
        assert_eq!(log.executions()[1].id, "p2");
        let a = log.activities().id("A").unwrap();
        assert_eq!(log.executions()[0].output_of(a), Some(&[3i64][..]));
    }

    #[test]
    fn empty_log_properties() {
        let log = WorkflowLog::new();
        assert!(log.is_empty());
        assert_eq!(log.max_repeats(), 0);
        assert!(log.every_activity_in_every_execution());
        assert!(!log.has_repeats());
    }

    #[test]
    fn serde_round_trip() {
        let log = WorkflowLog::from_strings(["ABE", "ACE"]).unwrap();
        let json = serde_json::to_string(&log).unwrap();
        let back: WorkflowLog = serde_json::from_str(&json).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.display_sequences(), log.display_sequences());
    }
}
