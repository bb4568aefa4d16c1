//! The procmine benchmark: batch and follow mining from log bytes on
//! disk to a mined model.
//!
//! ```text
//! procmine-benchmark setup   --workload W --seed N --dir D
//! procmine-benchmark measure --workload W --dir D --seconds S --trace 0|1
//! ```
//!
//! `setup` generates the workload's input from the seed, writes it to
//! `D/input.fm` and the reference answer to `D/reference.tsv`,
//! `SETUP_REPS` times, checks that every repetition wrote the same bytes,
//! and prints the median set-up time. `measure` runs the workload's command in a closed
//! loop (one reader drains the file, one mining thread) for `S` seconds,
//! checks every pass's output, and prints a report ending in one JSON
//! line. Run them as separate processes, so that the peak memory
//! `measure` reports excludes input generation. `benchmark/run.py`
//! builds the binary and runs both.

mod pipeline;
mod report;
mod trace;
mod workload;

use pipeline::{Cadence, Pass};
use std::collections::BTreeMap;
use std::error::Error;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::Trace;
use workload::{Edges, Mode, Spec};

const INPUT: &str = "input.fm";
const REFERENCE: &str = "reference.tsv";
const DESCRIPTOR: &str = "descriptor.tsv";
const CHECKPOINT: &str = "follow.ckpt";
/// How many times set-up runs; `setup_s` is the median.
const SETUP_REPS: usize = 5;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("setup") => setup(&Flags::parse(&args[1..])),
        Some("measure") => measure(&Flags::parse(&args[1..])),
        _ => Err("usage: procmine-benchmark setup|measure --workload W ...".into()),
    };
    if let Err(e) = result {
        eprintln!("procmine-benchmark: {e}");
        std::process::exit(1);
    }
}

/// `--name value` pairs.
struct Flags(BTreeMap<String, String>);

impl Flags {
    fn parse(args: &[String]) -> Flags {
        Flags(
            args.chunks(2)
                .filter_map(|kv| Some((kv[0].strip_prefix("--")?.to_string(), kv.get(1)?.clone())))
                .collect(),
        )
    }

    fn get(&self, name: &str) -> Result<&str, Box<dyn Error>> {
        self.0
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{name}").into())
    }

    fn num<T: std::str::FromStr>(&self, name: &str) -> Result<T, Box<dyn Error>> {
        self.get(name)?
            .parse()
            .map_err(|_| format!("--{name} needs a number").into())
    }

    fn workload(&self) -> Result<&'static Spec, Box<dyn Error>> {
        let name = self.get("workload")?;
        workload::lookup(name).ok_or_else(|| format!("unknown workload `{name}`").into())
    }
}

fn setup(flags: &Flags) -> Result<(), Box<dyn Error>> {
    let spec = flags.workload()?;
    let seed: u64 = flags.num("seed")?;
    let dir = PathBuf::from(flags.get("dir")?);
    std::fs::create_dir_all(&dir)?;
    let mut first: Option<Vec<u8>> = None;
    let mut times = Vec::new();
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        let input = workload::generate(spec, seed)?;
        std::fs::write(dir.join(INPUT), &input.bytes)?;
        let mut reference = String::new();
        for (u, v, c) in workload::reference_edges(&input.log)? {
            reference.push_str(&format!("{u}\t{v}\t{c}\n"));
        }
        std::fs::write(dir.join(REFERENCE), reference)?;
        let events: usize = input.log.executions().iter().map(|e| 2 * e.len()).sum();
        let descriptor = [
            ("workload", spec.name.to_string()),
            ("seed", seed.to_string()),
            ("executions", input.log.len().to_string()),
            ("events", events.to_string()),
            ("activities", input.log.activities().len().to_string()),
            ("input_mb", format!("{:.3}", input.bytes.len() as f64 / 1e6)),
            (
                "shape_ratio",
                format!("{:.6}", workload::shape_ratio(&input.log)),
            ),
            ("open_cases_at_most", spec.open_cases.to_string()),
        ];
        let text: String = descriptor
            .iter()
            .map(|(k, v)| format!("{k}\t{v}\n"))
            .collect();
        std::fs::write(dir.join(DESCRIPTOR), text)?;
        times.push(started.elapsed().as_secs_f64());
        match &first {
            None => first = Some(input.bytes),
            Some(bytes) if *bytes != input.bytes => {
                return Err(format!("seed {seed} gave different input bytes on a repeat").into())
            }
            Some(_) => {}
        }
    }
    println!(
        "{{\"setup_s\": {}, \"reps\": {SETUP_REPS}}}",
        report::median(&mut times)
    );
    Ok(())
}

/// The reference answer and descriptors set-up left in the directory.
struct Expected {
    edges: Edges,
    descriptor: Vec<(String, String)>,
}

fn read_expected(dir: &Path) -> Result<Expected, Box<dyn Error>> {
    let tsv = |name: &str| -> Result<Vec<Vec<String>>, Box<dyn Error>> {
        Ok(std::fs::read_to_string(dir.join(name))?
            .lines()
            .map(|l| l.split('\t').map(str::to_string).collect())
            .collect())
    };
    let mut edges = Vec::new();
    for row in tsv(REFERENCE)? {
        match &row[..] {
            [u, v, c] => edges.push((u.clone(), v.clone(), c.parse()?)),
            _ => return Err(format!("malformed {REFERENCE} row {row:?}").into()),
        }
    }
    let descriptor = tsv(DESCRIPTOR)?
        .into_iter()
        .filter_map(|row| match &row[..] {
            [k, v] => Some((k.clone(), v.clone())),
            _ => None,
        })
        .collect();
    Ok(Expected { edges, descriptor })
}

/// The workload's own follow cadence.
const FOLLOW: Cadence = Cadence {
    snapshot_every: Some(workload::SNAPSHOT_EVERY),
    checkpoint_every: Some(workload::CHECKPOINT_EVERY),
};

fn run_pass(mode: Mode, dir: &Path, trace: &Trace) -> Result<Pass, Box<dyn Error>> {
    let input = dir.join(INPUT);
    match mode {
        Mode::Batch => pipeline::batch(&input, trace),
        Mode::Follow => pipeline::follow(&input, &dir.join(CHECKPOINT), FOLLOW, trace),
    }
}

/// The output checks every pass must pass.
fn check(pass: &Pass, expected: &Expected, what: &str) -> Result<(), Box<dyn Error>> {
    if pass.edges != expected.edges {
        let missing: Vec<_> = expected
            .edges
            .iter()
            .filter(|e| !pass.edges.contains(e))
            .take(5)
            .collect();
        let extra: Vec<_> = pass
            .edges
            .iter()
            .filter(|e| !expected.edges.contains(e))
            .take(5)
            .collect();
        return Err(format!(
            "check failed: {what}: edges/supports differ from the reference miner \
             ({} vs {} edges; missing {missing:?}; unexpected {extra:?})",
            pass.edges.len(),
            expected.edges.len()
        )
        .into());
    }
    if pass.conformal == Some(false) {
        return Err(format!("check failed: {what}: conformance verdict is not OK").into());
    }
    let c = &pass.counts;
    if c.cases_evicted > 0 || c.cases_skipped > 0 {
        return Err(format!(
            "check failed: {what}: {} case(s) evicted, {} skipped",
            c.cases_evicted, c.cases_skipped
        )
        .into());
    }
    Ok(())
}

/// Checks a pass and keeps only what the metrics need: the edge list is
/// dropped, so what a run holds does not grow with its number of passes.
fn checked(mut pass: Pass, expected: &Expected, what: &str) -> Result<Pass, Box<dyn Error>> {
    check(&pass, expected, what)?;
    pass.edges = Edges::new();
    Ok(pass)
}

fn measure(flags: &Flags) -> Result<(), Box<dyn Error>> {
    let spec = flags.workload()?;
    let dir = PathBuf::from(flags.get("dir")?);
    let seconds: f64 = flags.num("seconds")?;
    let traced = match flags.get("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`").into()),
    };
    let expected = read_expected(&dir)?;
    let budget = Duration::from_secs_f64(seconds);
    let off = Trace::new(false);
    let on = Trace::new(true);

    // Warm-up: page cache, allocator, lazy statics.
    check(&run_pass(spec.mode, &dir, &off)?, &expected, "warm-up pass")?;

    let mut plain = Vec::new();
    let mut traced_passes = Vec::new();
    let started = Instant::now();
    let min_passes = if traced { 2 } else { 3 };
    while started.elapsed() < budget
        || plain.len() < min_passes
        || traced_passes.len() < min_passes * usize::from(traced)
    {
        plain.push(checked(
            run_pass(spec.mode, &dir, &off)?,
            &expected,
            "untraced pass",
        )?);
        if traced {
            let pass = checked(run_pass(spec.mode, &dir, &on)?, &expected, "traced pass")?;
            let (totals, covered) = on.take();
            traced_passes.push((pass, totals, covered));
        }
    }

    report::descriptors(spec, &expected.descriptor);
    let attempted = plain.len() + traced_passes.len();
    let failed = plain
        .iter()
        .chain(traced_passes.iter().map(|(p, _, _)| p))
        .filter(|p| p.counts.records_rejected > 0 || p.counts.cases_evicted > 0)
        .count();
    let metrics = if traced {
        // The other command over the same bytes, once: its layers are not
        // on this workload's path, and its model must match too. Over a
        // batch input, follow builds only the final model and saves once.
        let input = dir.join(INPUT);
        let cross = match spec.mode {
            Mode::Batch => {
                let cadence = Cadence {
                    snapshot_every: None,
                    checkpoint_every: None,
                };
                pipeline::follow(&input, &dir.join(CHECKPOINT), cadence, &on)?
            }
            Mode::Follow => pipeline::batch(&input, &on)?,
        };
        check(&cross, &expected, "cross-check pass")?;
        let (cross_totals, _) = on.take();
        let helpers = report::helpers(&input)?;
        report::per_layer(&plain, &traced_passes, (&cross, &cross_totals), &helpers)
    } else {
        report::end_to_end(&plain)?
    };
    report::print_result(attempted, failed, &metrics);
    Ok(())
}
