//! Flowmark-style CSV event format.
//!
//! One event per line:
//!
//! ```text
//! process,activity,START|END,timestamp[,o1;o2;...]
//! ```
//!
//! The output field is present only on END events that recorded an
//! output vector (semicolon-separated integers). Blank lines and lines
//! starting with `#` are ignored. Field values may not contain commas;
//! this mirrors the flat audit-trail files the paper's implementation
//! consumed ("lists of event records consisting of the process name, the
//! activity name, the event type, and the timestamp", §8).

use super::{ByteLines, CodecStats, IngestReport, RecoveryPolicy};
use crate::validate::{Assembled, AssemblyPolicy, CompactEvents};
use crate::{ActivityTable, EventKind, EventRecord, LogError, WorkflowLog};
use std::io::{BufRead, Write};

/// Parses a Flowmark-style event stream into raw records. Strict: the
/// first bad line, terminated or not, is returned as its
/// [`LogError::Parse`] with a 1-based line number.
pub fn read_events<R: BufRead>(reader: R) -> Result<Vec<EventRecord>, LogError> {
    let mut lines = ByteLines::new(reader);
    let mut records = Vec::new();
    while let Some(record) = lines.next_parsed(parse_line)? {
        records.push(record);
    }
    Ok(records)
}

/// Parses a Flowmark-style event stream and assembles it into a
/// [`WorkflowLog`] (strict START/END pairing).
pub fn read_log<R: BufRead>(reader: R) -> Result<WorkflowLog, LogError> {
    read_log_with_stats(reader, &mut CodecStats::default())
}

/// [`read_log`] with telemetry: bytes consumed, event lines parsed, and
/// executions assembled accumulate into `stats`.
pub fn read_log_with_stats<R: BufRead>(
    reader: R,
    stats: &mut CodecStats,
) -> Result<WorkflowLog, LogError> {
    read_log_with(
        reader,
        RecoveryPolicy::Strict,
        stats,
        &mut IngestReport::default(),
    )
}

/// [`read_log_with_stats`] with a [`RecoveryPolicy`]: under `Strict`
/// the first bad line aborts (it is still recorded in `report`, with
/// its byte offset); under `Skip`/`BestEffort` bad lines are counted
/// and skipped and START/END pairing falls back to lenient assembly.
/// An unparsable final line with no trailing newline is reported as
/// [`LogError::UnexpectedEof`] — a truncated file, not a garbage line.
///
/// Each line decodes into a [`CompactEvent`](crate::validate::CompactEvent)
/// (interned case and activity ids, no heap allocation per line), and
/// the events are paired by the one assembly core of
/// [`crate::validate`].
pub fn read_log_with<R: BufRead>(
    reader: R,
    policy: RecoveryPolicy,
    stats: &mut CodecStats,
    report: &mut IngestReport,
) -> Result<WorkflowLog, LogError> {
    let mut lines = ByteLines::new(reader);
    let mut events = CompactEvents::default();
    let result = collect_events(&mut lines, policy, report, &mut events);
    stats.bytes_read += lines.bytes();
    result?;
    stats.events_parsed += events.len() as u64;
    let assembly = if policy.is_strict() {
        AssemblyPolicy::Strict
    } else {
        AssemblyPolicy::Lenient
    };
    let mut table = ActivityTable::new();
    let mut assembled = Assembled::default();
    if let Err(e) = events.assemble(&mut table, assembly, &mut assembled) {
        report.record_error(lines.bytes(), 0, e.to_string());
        return Err(e);
    }
    report.records_skipped += assembled.diagnostics.len() as u64;
    let log = WorkflowLog::from_parts(table, assembled.executions);
    stats.executions_parsed += log.len() as u64;
    Ok(log)
}

fn collect_events<R: BufRead>(
    lines: &mut ByteLines<R>,
    policy: RecoveryPolicy,
    report: &mut IngestReport,
    events: &mut CompactEvents,
) -> Result<(), LogError> {
    let mut output = Vec::new();
    let mut push = |text: &str, lineno: usize| {
        let Some(f) = split_line(text, lineno)? else {
            return Ok(None);
        };
        let output = match f.output {
            Some(field) => {
                output.clear();
                parse_output(field, lineno, &mut output)?;
                Some(&output[..])
            }
            None => None,
        };
        events.push(f.process, f.activity, f.kind, f.time, output)?;
        Ok(Some(()))
    };
    while lines.next_record(policy, report, &mut push)?.is_some() {}
    Ok(())
}

/// Writes a log as a Flowmark-style event stream. Instances are emitted
/// per execution in start-time order: a START line, then an END line.
/// Instantaneous instances (`start == end`) still emit both events, so
/// the format round-trips.
pub fn write_log<W: Write>(log: &WorkflowLog, mut writer: W) -> Result<(), LogError> {
    for exec in log.executions() {
        // Emit all events of the execution sorted by time (START before
        // END at equal timestamps so strict re-assembly succeeds).
        let mut events: Vec<EventRecord> = Vec::with_capacity(exec.len() * 2);
        for inst in exec.instances() {
            let name = log.activities().name(inst.activity);
            events.push(EventRecord::start(exec.id.clone(), name, inst.start));
            events.push(EventRecord::end(
                exec.id.clone(),
                name,
                inst.end,
                inst.output.clone(),
            ));
        }
        events.sort_by_key(|e| (e.time, matches!(e.kind, EventKind::End)));
        for e in events {
            write_line(&e, &mut writer)?;
        }
    }
    Ok(())
}

fn write_line<W: Write>(e: &EventRecord, writer: &mut W) -> Result<(), LogError> {
    check_field(&e.process)?;
    check_field(&e.activity)?;
    match &e.output {
        Some(o) => {
            let joined = o.iter().map(i64::to_string).collect::<Vec<_>>().join(";");
            writeln!(
                writer,
                "{},{},{},{},{}",
                e.process, e.activity, e.kind, e.time, joined
            )?;
        }
        None => writeln!(writer, "{},{},{},{}", e.process, e.activity, e.kind, e.time)?,
    }
    Ok(())
}

fn check_field(s: &str) -> Result<(), LogError> {
    if s.contains(',') || s.contains('\n') {
        return Err(LogError::Parse {
            line: 0,
            message: format!("field `{s}` contains a comma or newline and cannot be written"),
        });
    }
    Ok(())
}

/// Parses one line of a Flowmark log: `Ok(None)` for a blank line or a
/// `#` comment. The line parser of [`read_events`] and of
/// [`FlowmarkSource`](crate::stream::FlowmarkSource); the batch reader
/// decodes through the same [`split_line`].
pub(crate) fn parse_line(text: &str, lineno: usize) -> Result<Option<EventRecord>, LogError> {
    let Some(f) = split_line(text, lineno)? else {
        return Ok(None);
    };
    let output = match f.output {
        Some(field) => {
            let mut values = Vec::new();
            parse_output(field, lineno, &mut values)?;
            Some(values)
        }
        None => None,
    };
    Ok(Some(EventRecord {
        process: f.process.to_string(),
        activity: f.activity.to_string(),
        kind: f.kind,
        time: f.time,
        output,
    }))
}

/// The fields of one Flowmark event line, borrowed from the line.
struct Fields<'a> {
    process: &'a str,
    activity: &'a str,
    kind: EventKind,
    time: u64,
    /// The raw output field, parsed by [`parse_output`].
    output: Option<&'a str>,
}

/// Splits and checks one Flowmark line (1-based `lineno` for errors)
/// without allocating: `Ok(None)` for a blank line or a `#` comment.
/// The one line grammar of every Flowmark reader.
fn split_line(text: &str, lineno: usize) -> Result<Option<Fields<'_>>, LogError> {
    let line = trim(text);
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let error = |message: String| LogError::Parse {
        line: lineno,
        message,
    };
    let mut parts = [""; 5];
    let mut count = 0;
    let mut start = 0;
    for (i, &b) in line.as_bytes().iter().enumerate() {
        if b == b',' {
            if let Some(slot) = parts.get_mut(count) {
                *slot = &line[start..i];
            }
            count += 1;
            start = i + 1;
        }
    }
    if let Some(slot) = parts.get_mut(count) {
        *slot = &line[start..];
    }
    count += 1;
    if !(4..=5).contains(&count) {
        return Err(error(format!(
            "expected 4 or 5 comma-separated fields, got {count}"
        )));
    }
    let kind: EventKind = trim(parts[2])
        .parse()
        .map_err(|()| error(format!("unknown event type `{}`", parts[2])))?;
    let time: u64 = trim(parts[3])
        .parse()
        .map_err(|_| error(format!("invalid timestamp `{}`", parts[3])))?;
    let output = if count == 5 {
        if kind == EventKind::Start {
            return Err(error(
                "START events cannot carry an output vector".to_string(),
            ));
        }
        Some(parts[4])
    } else {
        None
    };
    Ok(Some(Fields {
        process: trim(parts[0]),
        activity: trim(parts[1]),
        kind,
        time,
        output,
    }))
}

/// [`str::trim`], returning `s` itself without a char scan when both
/// ends are ASCII non-whitespace (the common case for a field).
fn trim(s: &str) -> &str {
    let kept = |b: Option<&u8>| b.is_some_and(|&b| b.is_ascii() && !char::from(b).is_whitespace());
    if kept(s.as_bytes().first()) && kept(s.as_bytes().last()) {
        s
    } else {
        s.trim()
    }
}

/// Appends the `;`-separated integers of an output field to `values`.
fn parse_output(field: &str, lineno: usize, values: &mut Vec<i64>) -> Result<(), LogError> {
    for v in field.split(';') {
        values.push(trim(v).parse().map_err(|_| LogError::Parse {
            line: lineno,
            message: format!("invalid output vector `{field}`"),
        })?);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# a comment
p1,A,START,0
p1,A,END,1,3;4

p1,B,START,2
p1,B,END,3
p2,A,START,0
p2,A,END,2
";

    #[test]
    fn parses_sample() {
        let log = read_log(SAMPLE.as_bytes()).unwrap();
        assert_eq!(log.len(), 2);
        assert_eq!(log.executions()[0].len(), 2);
        let a = log.activities().id("A").unwrap();
        assert_eq!(log.executions()[0].output_of(a), Some(&[3i64, 4][..]));
    }

    #[test]
    fn round_trip() {
        let log = read_log(SAMPLE.as_bytes()).unwrap();
        let mut buf = Vec::new();
        write_log(&log, &mut buf).unwrap();
        let back = read_log(buf.as_slice()).unwrap();
        assert_eq!(back.len(), log.len());
        assert_eq!(back.display_sequences(), log.display_sequences());
        let a = back.activities().id("A").unwrap();
        assert_eq!(back.executions()[0].output_of(a), Some(&[3i64, 4][..]));
    }

    #[test]
    fn instantaneous_sequences_round_trip() {
        let log = WorkflowLog::from_strings(["ABCE", "ACDE"]).unwrap();
        let mut buf = Vec::new();
        write_log(&log, &mut buf).unwrap();
        let back = read_log(buf.as_slice()).unwrap();
        assert_eq!(back.display_sequences(), log.display_sequences());
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(matches!(
            read_events("p1,A,START".as_bytes()),
            Err(LogError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            read_events("p1,A,BEGIN,0".as_bytes()),
            Err(LogError::Parse { .. })
        ));
        assert!(matches!(
            read_events("p1,A,START,abc".as_bytes()),
            Err(LogError::Parse { .. })
        ));
        assert!(matches!(
            read_events("p1,A,START,0,1;2".as_bytes()),
            Err(LogError::Parse { .. })
        ));
        assert!(matches!(
            read_events("p1,A,END,0,1;x".as_bytes()),
            Err(LogError::Parse { .. })
        ));
    }

    #[test]
    fn rejects_unwritable_fields() {
        let mut log = WorkflowLog::new();
        log.push_sequence(&["bad,name"]).unwrap();
        let mut buf = Vec::new();
        assert!(write_log(&log, &mut buf).is_err());
    }
}
