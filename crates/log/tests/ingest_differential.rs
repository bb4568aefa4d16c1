//! Differential test of Flowmark batch ingest: the compact reader and
//! the one assembly core against the record-based path they replaced,
//! kept here as the oracle.
//!
//! The oracle parses each line into an owned `EventRecord` (two
//! `String`s and a `Vec<&str>` per line), groups the records by case in
//! a hash map, and pairs START/END with a per-activity `Vec` per case —
//! the old `parse_event_line` + `assemble_impl`, with its line loop
//! written out over a byte slice. It differs from the old code in one
//! place only: the old code reported STARTs that never ended in hash
//! order; the oracle reports them in time order, as the core does
//! (pinned on its own by `validate::tests`).
//!
//! Random logs interleave cases, log timestamps out of order, overlap
//! instances of one activity, carry output vectors, mix in blank, `#`
//! and CRLF lines, and corrupt whole lines. Each runs under `Strict`,
//! `Skip { k }` and `BestEffort`. The vendored proptest cannot shrink,
//! so every assertion names the log's seed.

use procmine_log::codec::{flowmark, CodecStats};
use procmine_log::fault::corrupt_whole_lines;
use procmine_log::validate::{assemble_executions_with, AssemblyPolicy, CompactEvent, Diagnostic};
use procmine_log::{
    ActivityInstance, ActivityTable, EventKind, EventRecord, Execution, IngestReport, LogError,
    RecoveryPolicy, WorkflowLog,
};
use proptest::prelude::*;
use std::collections::HashMap;

mod oracle {
    use super::*;

    /// The old per-line parser.
    pub fn parse_event_line(line: &str, lineno: usize) -> Result<EventRecord, LogError> {
        let parts: Vec<&str> = line.split(',').collect();
        if parts.len() < 4 || parts.len() > 5 {
            return Err(LogError::Parse {
                line: lineno,
                message: format!(
                    "expected 4 or 5 comma-separated fields, got {}",
                    parts.len()
                ),
            });
        }
        let kind: EventKind = parts[2].trim().parse().map_err(|()| LogError::Parse {
            line: lineno,
            message: format!("unknown event type `{}`", parts[2]),
        })?;
        let time: u64 = parts[3].trim().parse().map_err(|_| LogError::Parse {
            line: lineno,
            message: format!("invalid timestamp `{}`", parts[3]),
        })?;
        let output = if parts.len() == 5 {
            if kind == EventKind::Start {
                return Err(LogError::Parse {
                    line: lineno,
                    message: "START events cannot carry an output vector".to_string(),
                });
            }
            let vec: Result<Vec<i64>, _> = parts[4]
                .split(';')
                .map(|v| v.trim().parse::<i64>())
                .collect();
            Some(vec.map_err(|_| LogError::Parse {
                line: lineno,
                message: format!("invalid output vector `{}`", parts[4]),
            })?)
        } else {
            None
        };
        Ok(EventRecord {
            process: parts[0].trim().to_string(),
            activity: parts[1].trim().to_string(),
            kind,
            time,
            output,
        })
    }

    fn parse_line(bytes: &[u8], lineno: usize) -> Result<Option<EventRecord>, LogError> {
        let text = std::str::from_utf8(bytes).map_err(|_| LogError::Parse {
            line: lineno,
            message: "line is not valid UTF-8".to_string(),
        })?;
        let trimmed = text.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            return Ok(None);
        }
        parse_event_line(trimmed, lineno).map(Some)
    }

    /// Lines of `data` as `(byte_offset, lineno, bytes, had_newline,
    /// next_offset)`, with the `\n` (and a `\r` before it) removed.
    fn lines(data: &[u8]) -> Vec<(u64, usize, &[u8], bool, u64)> {
        let mut out = Vec::new();
        let mut start = 0;
        while start < data.len() {
            let (end, next, had_newline) = match data[start..].iter().position(|&b| b == b'\n') {
                Some(p) => (start + p, start + p + 1, true),
                None => (data.len(), data.len(), false),
            };
            let mut line = &data[start..end];
            if had_newline && line.last() == Some(&b'\r') {
                line = &line[..line.len() - 1];
            }
            out.push((start as u64, out.len() + 1, line, had_newline, next as u64));
            start = next;
        }
        out
    }

    /// The old strict `read_events`.
    pub fn read_events(data: &[u8]) -> Result<Vec<EventRecord>, LogError> {
        let mut records = Vec::new();
        for (_, lineno, bytes, _, _) in lines(data) {
            if let Some(r) = parse_line(bytes, lineno)? {
                records.push(r);
            }
        }
        Ok(records)
    }

    /// The old `read_log_with`: the recovering record loop, then strict
    /// or lenient assembly.
    pub fn read_log_with(
        data: &[u8],
        policy: RecoveryPolicy,
        stats: &mut CodecStats,
        report: &mut IngestReport,
    ) -> Result<(ActivityTable, Vec<Execution>), LogError> {
        let mut records = Vec::new();
        let mut consumed = 0u64;
        let mut parse = || -> Result<(), LogError> {
            for (offset, lineno, bytes, had_newline, next) in lines(data) {
                consumed = next;
                let err = match parse_line(bytes, lineno) {
                    Ok(None) => continue,
                    Ok(Some(r)) => {
                        report.records_parsed += 1;
                        records.push(r);
                        continue;
                    }
                    Err(e) if had_newline => e,
                    Err(e) => LogError::UnexpectedEof {
                        byte_offset: offset,
                        message: format!("input ends mid-record ({e})"),
                    },
                };
                report.record_error(offset, lineno, err.to_string());
                if policy.is_strict() {
                    return Err(err);
                }
                report.records_skipped += 1;
                if let RecoveryPolicy::Skip { max_errors } = policy {
                    if report.errors_total > max_errors {
                        return Err(LogError::TooManyErrors {
                            errors: report.errors_total,
                            max_errors,
                        });
                    }
                }
            }
            Ok(())
        };
        let result = parse();
        stats.bytes_read += consumed;
        result?;
        stats.events_parsed += records.len() as u64;
        let assembly = if policy.is_strict() {
            AssemblyPolicy::Strict
        } else {
            AssemblyPolicy::Lenient
        };
        let mut table = ActivityTable::new();
        let (executions, diagnostics) = assemble(&records, &mut table, assembly).map_err(|e| {
            report.record_error(consumed, 0, e.to_string());
            e
        })?;
        report.records_skipped += diagnostics.len() as u64;
        stats.executions_parsed += executions.len() as u64;
        Ok((table, executions))
    }

    /// The old `assemble_impl`, reporting never-ended STARTs in time
    /// order instead of hash order.
    pub fn assemble(
        records: &[EventRecord],
        table: &mut ActivityTable,
        policy: AssemblyPolicy,
    ) -> Result<(Vec<Execution>, Vec<Diagnostic>), LogError> {
        let mut order: Vec<&str> = Vec::new();
        let mut groups: HashMap<&str, Vec<&EventRecord>> = HashMap::new();
        for r in records {
            groups
                .entry(&r.process)
                .or_insert_with(|| {
                    order.push(&r.process);
                    Vec::new()
                })
                .push(r);
        }
        let mut diagnostics = Vec::new();
        let mut executions = Vec::new();
        for name in order {
            let mut events = groups.remove(name).unwrap();
            events.sort_by_key(|r| r.time);
            let mut open: HashMap<&str, Vec<(u64, usize)>> = HashMap::new();
            let mut instances: Vec<ActivityInstance> = Vec::new();
            for r in &events {
                match r.kind {
                    EventKind::Start => {
                        let idx = instances.len();
                        instances.push(ActivityInstance {
                            activity: table.intern(&r.activity),
                            start: r.time,
                            end: u64::MAX,
                            output: None,
                        });
                        open.entry(&r.activity).or_default().push((r.time, idx));
                    }
                    EventKind::End => {
                        let slot = open
                            .get_mut(r.activity.as_str())
                            .and_then(|v| (!v.is_empty()).then(|| v.remove(0)));
                        match slot {
                            Some((_, idx)) => {
                                instances[idx].end = r.time;
                                instances[idx].output = r.output.clone();
                            }
                            None => match policy {
                                AssemblyPolicy::Strict => {
                                    return Err(LogError::UnmatchedEnd {
                                        execution: name.to_string(),
                                        activity: r.activity.clone(),
                                        time: r.time,
                                    })
                                }
                                AssemblyPolicy::Lenient => {
                                    diagnostics.push(Diagnostic::DanglingEnd {
                                        execution: name.to_string(),
                                        activity: r.activity.clone(),
                                        time: r.time,
                                    })
                                }
                            },
                        }
                    }
                }
            }
            let mut still_open: Vec<(usize, &str, u64)> = open
                .into_iter()
                .flat_map(|(a, starts)| starts.into_iter().map(move |(t, idx)| (idx, a, t)))
                .collect();
            still_open.sort_unstable();
            let mut dangling: Vec<usize> = Vec::new();
            for (idx, activity, time) in still_open {
                match policy {
                    AssemblyPolicy::Strict => {
                        return Err(LogError::UnmatchedStart {
                            execution: name.to_string(),
                            activity: activity.to_string(),
                            time,
                        })
                    }
                    AssemblyPolicy::Lenient => {
                        diagnostics.push(Diagnostic::DanglingStart {
                            execution: name.to_string(),
                            activity: activity.to_string(),
                            time,
                        });
                        dangling.push(idx);
                    }
                }
            }
            dangling.sort_unstable_by(|a, b| b.cmp(a));
            for idx in dangling {
                instances.remove(idx);
            }
            if instances.is_empty() {
                continue;
            }
            executions.push(Execution::new(name, instances)?);
        }
        Ok((executions, diagnostics))
    }
}

/// One SplitMix64 step.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn below(state: &mut u64, n: u64) -> u64 {
    next(state) % n
}

fn pick<'a>(state: &mut u64, items: &[&'a str]) -> &'a str {
    items[below(state, items.len() as u64) as usize]
}

/// A random Flowmark log drawn from `seed`.
fn random_log(seed: u64) -> Vec<u8> {
    let mut rng = seed;
    let rng = &mut rng;
    // A third of the logs are well formed, so strict reads get through.
    let noisy = below(rng, 3) != 0;
    let cases = 1 + below(rng, 6) as usize;
    let mut per_case: Vec<Vec<String>> = Vec::new();
    for c in 0..cases {
        // Fields may carry ASCII and Unicode whitespace, which is trimmed.
        let name = match below(rng, 10) {
            0 => format!(" c{c} "),
            1 => format!("\u{a0}c{c}\t"),
            _ => format!("c{c}"),
        };
        let mut events: Vec<(u64, u8, String)> = Vec::new();
        for _ in 0..below(rng, 7) {
            // Few activity names, so instances of one activity overlap.
            let activity = pick(rng, &["A", "B", "C", "Dee", "A", "\u{2003}B"]);
            let start = below(rng, 12);
            let end = start + below(rng, 5);
            if !noisy || below(rng, 10) != 0 {
                let kind = pick(rng, &["START", "START", "start", "Start"]);
                let time = match below(rng, 8) {
                    0 => format!(" {start} "),
                    1 => format!("\u{b}{start}"),
                    _ => start.to_string(),
                };
                events.push((start, 0, format!("{name},{activity},{kind},{time}")));
            }
            if !noisy || below(rng, 10) != 0 {
                let kind = pick(rng, &["END", "END", "end", "End"]);
                let output = match below(rng, 4) {
                    0 => ",1;2;-3".to_string(),
                    1 => format!(", {} ; 7", below(rng, 9)),
                    _ => String::new(),
                };
                events.push((end, 1, format!("{name},{activity},{kind},{end}{output}")));
            }
        }
        if noisy && below(rng, 6) == 0 {
            let t = below(rng, 12);
            events.push((t, 1, format!("{name},Stray,END,{t}")));
        }
        if below(rng, 3) == 0 {
            // Out of time order: shuffle the case's lines.
            for i in (1..events.len()).rev() {
                events.swap(i, below(rng, i as u64 + 1) as usize);
            }
        } else {
            events.sort_by_key(|e| (e.0, e.1));
        }
        per_case.push(events.into_iter().map(|e| e.2).collect());
    }

    let contiguous = below(rng, 4) == 0;
    let mut lines: Vec<String> = Vec::new();
    let mut cursors = vec![0usize; cases];
    loop {
        let live: Vec<usize> = (0..cases)
            .filter(|&c| cursors[c] < per_case[c].len())
            .collect();
        let Some(&c) = (if contiguous {
            live.first()
        } else {
            live.get(below(rng, live.len().max(1) as u64) as usize)
        }) else {
            break;
        };
        lines.push(per_case[c][cursors[c]].clone());
        cursors[c] += 1;
        if noisy && below(rng, 8) == 0 {
            let noise = [
                "",
                "   ",
                "# a comment",
                "  # indented comment",
                "\u{a0}# comment after a no-break space",
                "\u{85}",
                "c0,A,START,1,4",
                "c1,B,BEGIN,2",
                "c2,C,END,soon",
                "c0,A,END,3,1;x",
                "too,few",
                "a,b,END,1,2,3",
            ];
            lines.push(pick(rng, &noise).to_string());
        }
    }

    let mut data = Vec::new();
    for line in &lines {
        data.extend_from_slice(line.as_bytes());
        if below(rng, 5) == 0 {
            data.extend_from_slice(b"\r\n");
        } else {
            data.push(b'\n');
        }
    }
    if noisy && below(rng, 10) == 0 {
        data.extend_from_slice(b"c0,A,\xff\xfe,1\n");
    }
    if noisy && below(rng, 6) == 0 {
        // An unterminated last line, whole or cut mid-record.
        data.extend_from_slice(pick(rng, &["c0,Z,START,0", "c0,Z,STA", "# tail"]).as_bytes());
    }
    if noisy && below(rng, 3) == 0 {
        let k = 1 + below(rng, 3) as usize;
        data = corrupt_whole_lines(&data, k, next(rng)).0;
    }
    data
}

const POLICIES: [RecoveryPolicy; 5] = [
    RecoveryPolicy::Strict,
    RecoveryPolicy::Skip { max_errors: 0 },
    RecoveryPolicy::Skip { max_errors: 1 },
    RecoveryPolicy::Skip { max_errors: 3 },
    RecoveryPolicy::BestEffort,
];

#[test]
fn compact_event_fits_in_24_bytes() {
    assert_eq!(std::mem::size_of::<CompactEvent>(), 24);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Same executions, activity-name order, `CodecStats`,
    /// `IngestReport` and rendered error as the oracle, under every
    /// policy.
    #[test]
    fn batch_reader_matches_the_record_path(seed in 0u64..=u64::MAX) {
        let data = random_log(seed);
        for policy in POLICIES {
            let (mut stats, mut report) = (CodecStats::default(), IngestReport::default());
            let got = flowmark::read_log_with(&data[..], policy, &mut stats, &mut report);
            let (mut want_stats, mut want_report) = (CodecStats::default(), IngestReport::default());
            let want = oracle::read_log_with(&data, policy, &mut want_stats, &mut want_report);
            let context = format!("seed {seed}, {policy:?}, input {:?}", String::from_utf8_lossy(&data));
            match (got, want) {
                (Ok(log), Ok((table, executions))) => {
                    prop_assert_eq!(log.activities().names(), table.names(), "{}", context);
                    prop_assert_eq!(log.executions(), &executions[..], "{}", context);
                }
                (Err(got), Err(want)) => {
                    prop_assert_eq!(got.to_string(), want.to_string(), "{}", context)
                }
                (got, want) => panic!("{context}: got {got:?}, want {want:?}"),
            }
            prop_assert_eq!(stats, want_stats, "{}", context);
            prop_assert_eq!(report, want_report, "{}", context);
        }
    }

    /// The record-slice adapters and the strict record reader agree
    /// with the oracle too, diagnostics included, in order.
    #[test]
    fn record_adapters_match_the_record_path(seed in 0u64..=u64::MAX) {
        let data = random_log(seed);
        let context = format!("seed {seed}, input {:?}", String::from_utf8_lossy(&data));
        let records = match (flowmark::read_events(&data[..]), oracle::read_events(&data)) {
            (Ok(got), Ok(want)) => {
                prop_assert_eq!(&got, &want, "{}", context);
                got
            }
            (Err(got), Err(want)) => {
                prop_assert_eq!(got.to_string(), want.to_string(), "{}", context);
                return;
            }
            (got, want) => panic!("{context}: got {got:?}, want {want:?}"),
        };

        let mut table = ActivityTable::new();
        let want = oracle::assemble(&records, &mut table, AssemblyPolicy::Lenient).unwrap();
        let mut got_table = ActivityTable::new();
        let got = assemble_executions_with(&records, &mut got_table, AssemblyPolicy::Lenient)
            .unwrap();
        prop_assert_eq!(got_table.names(), table.names(), "{}", context);
        prop_assert_eq!(&got.executions, &want.0, "{}", context);
        prop_assert_eq!(&got.diagnostics, &want.1, "{}", context);

        let mut table = ActivityTable::new();
        match (
            WorkflowLog::from_events(&records),
            oracle::assemble(&records, &mut table, AssemblyPolicy::Strict),
        ) {
            (Ok(log), Ok((executions, _))) => {
                prop_assert_eq!(log.activities().names(), table.names(), "{}", context);
                prop_assert_eq!(log.executions(), &executions[..], "{}", context);
            }
            (Err(got), Err(want)) => {
                prop_assert_eq!(got.to_string(), want.to_string(), "{}", context)
            }
            (got, want) => panic!("{context}: got {got:?}, want {want:?}"),
        }
    }
}
