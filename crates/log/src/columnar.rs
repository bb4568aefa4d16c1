//! Columnar (struct-of-arrays) log layout.
//!
//! [`WorkflowLog`] stores one `Vec<ActivityInstance>` per execution —
//! convenient for codecs and validation, but pointer-heavy for the
//! miners, whose step-2 pair scans and follows counting stream over
//! every instance of every execution. [`EventColumns`] flattens a log
//! into four parallel arrays — activity ids, start times, end times,
//! and a CSR-style offsets array delimiting executions — so those scans
//! run over contiguous buffers with no per-execution indirection.
//! Columns carry only what the miners read per event; codecs and the
//! streaming case assembler keep operating on [`WorkflowLog`].

use crate::{Execution, WorkflowLog};

/// Struct-of-arrays event storage: all instances of all executions in
/// four parallel buffers, executions delimited CSR-style by `offsets`.
///
/// Execution `i` owns the index range `offsets[i]..offsets[i + 1]` of
/// `activities` / `starts` / `ends`. Within an execution, events keep
/// the [`Execution`] invariant: sorted by `(start, end, activity)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventColumns {
    activities: Vec<u32>,
    starts: Vec<u64>,
    ends: Vec<u64>,
    /// `offsets[0] == 0`, one extra entry per execution; length is
    /// `exec_count() + 1`.
    offsets: Vec<usize>,
}

/// Borrowed view of one execution's columns (see
/// [`EventColumns::exec`]). The three slices are index-parallel.
#[derive(Debug, Clone, Copy)]
pub struct ExecColumns<'a> {
    /// Activity id of each event.
    pub activities: &'a [u32],
    /// Start timestamp of each event.
    pub starts: &'a [u64],
    /// End timestamp of each event.
    pub ends: &'a [u64],
}

impl ExecColumns<'_> {
    /// Number of events in this execution.
    pub fn len(&self) -> usize {
        self.activities.len()
    }

    /// `true` if the execution has no events.
    pub fn is_empty(&self) -> bool {
        self.activities.is_empty()
    }
}

impl EventColumns {
    /// Empty columns (zero executions).
    pub fn new() -> Self {
        EventColumns {
            activities: Vec::new(),
            starts: Vec::new(),
            ends: Vec::new(),
            offsets: vec![0],
        }
    }

    /// Empty columns with room for `execs` executions totalling
    /// `events` events.
    pub fn with_capacity(execs: usize, events: usize) -> Self {
        EventColumns {
            activities: Vec::with_capacity(events),
            starts: Vec::with_capacity(events),
            ends: Vec::with_capacity(events),
            offsets: {
                let mut o = Vec::with_capacity(execs + 1);
                o.push(0);
                o
            },
        }
    }

    /// Flattens a [`WorkflowLog`]'s instance rows into columns
    /// (dropping case ids and outputs).
    pub fn from_log(log: &WorkflowLog) -> Self {
        let events = log.executions().iter().map(Execution::len).sum();
        let mut cols = EventColumns::with_capacity(log.len(), events);
        for e in log.executions() {
            cols.push_exec(
                e.instances()
                    .iter()
                    .map(|i| (i.activity.index() as u32, i.start, i.end)),
            );
        }
        cols
    }

    /// Appends one execution from `(activity, start, end)` event
    /// triples, in order.
    pub fn push_exec(&mut self, events: impl IntoIterator<Item = (u32, u64, u64)>) {
        for (a, s, e) in events {
            self.activities.push(a);
            self.starts.push(s);
            self.ends.push(e);
        }
        self.offsets.push(self.activities.len());
    }

    /// Number of executions.
    pub fn exec_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of events across all executions.
    pub fn event_count(&self) -> usize {
        self.activities.len()
    }

    /// `true` if there are no executions.
    pub fn is_empty(&self) -> bool {
        self.exec_count() == 0
    }

    /// The columns of execution `i`. Panics if `i` is out of range.
    pub fn exec(&self, i: usize) -> ExecColumns<'_> {
        let (lo, hi) = (self.offsets[i], self.offsets[i + 1]);
        ExecColumns {
            activities: &self.activities[lo..hi],
            starts: &self.starts[lo..hi],
            ends: &self.ends[lo..hi],
        }
    }

    /// Number of events in execution `i` without materializing a view.
    pub fn exec_len(&self, i: usize) -> usize {
        self.offsets[i + 1] - self.offsets[i]
    }

    /// The CSR offsets array (`exec_count() + 1` entries, first is 0).
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The flat activity-id column.
    pub fn activities(&self) -> &[u32] {
        &self.activities
    }

    /// The flat start-time column.
    pub fn starts(&self) -> &[u64] {
        &self.starts
    }

    /// The flat end-time column.
    pub fn ends(&self) -> &[u64] {
        &self.ends
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ActivityInstance;

    fn sample_log() -> WorkflowLog {
        let mut log = WorkflowLog::new();
        let a = log.intern_activity("A");
        let b = log.intern_activity("B");
        let c = log.intern_activity("C");
        let mk = |act, start, end, output| ActivityInstance {
            activity: act,
            start,
            end,
            output,
        };
        log.push(
            Execution::new(
                "case-1",
                vec![
                    mk(a, 0, 2, None),
                    mk(b, 3, 5, Some(vec![7, -1])),
                    mk(c, 6, 6, None),
                ],
            )
            .unwrap(),
        );
        log.push(
            Execution::new(
                "case-2",
                vec![mk(a, 10, 11, None), mk(c, 12, 15, Some(vec![0]))],
            )
            .unwrap(),
        );
        log
    }

    #[test]
    fn columns_flatten_csr_style() {
        let log = sample_log();
        let cols = EventColumns::from_log(&log);
        assert_eq!(cols.exec_count(), 2);
        assert_eq!(cols.event_count(), 5);
        assert_eq!(cols.offsets(), &[0, 3, 5]);
        assert_eq!(cols.activities(), &[0, 1, 2, 0, 2]);
        assert_eq!(cols.starts(), &[0, 3, 6, 10, 12]);
        assert_eq!(cols.ends(), &[2, 5, 6, 11, 15]);
        let e1 = cols.exec(1);
        assert_eq!(e1.len(), 2);
        assert_eq!(e1.activities, &[0, 2]);
        assert_eq!(e1.starts, &[10, 12]);
        assert_eq!(cols.exec_len(0), 3);
    }

    #[test]
    fn empty_columns() {
        let cols = EventColumns::new();
        assert!(cols.is_empty());
        assert_eq!(cols.exec_count(), 0);
        assert_eq!(cols.offsets(), &[0]);
        let cols = EventColumns::from_log(&WorkflowLog::new());
        assert!(cols.is_empty());
    }

    #[test]
    fn push_exec_appends_in_order() {
        let mut cols = EventColumns::new();
        cols.push_exec([(4u32, 0u64, 1u64), (2, 2, 3)]);
        cols.push_exec([(1u32, 5u64, 5u64)]);
        assert_eq!(cols.exec_count(), 2);
        assert_eq!(cols.exec(0).activities, &[4, 2]);
        assert_eq!(cols.exec(1).ends, &[5]);
    }
}
