#!/usr/bin/env bash
# Local CI gate: formatting, lints, then the tier-1 build + test pass.
# Run from the repo root. Fails fast on the first broken step.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# The ingestion, mining, and graph libraries are panic-audited:
# unwrap/expect are denied, with `#[allow]` + a justification comment
# at the few provably infallible sites. Lib targets only — tests and
# benches may unwrap freely.
echo "==> panic audit: clippy -D clippy::unwrap_used -D clippy::expect_used (log, core, graph)"
cargo clippy -p procmine-log -p procmine-core -p procmine-graph --lib --no-deps -- \
  -D warnings -D clippy::unwrap_used -D clippy::expect_used

# The `*_instrumented` twin API is gone (its one-release grace period
# ended with the compat modules' removal) and must not regrow. The CLI
# must likewise build its telemetry through `MineSession` rather than
# wiring sinks and tracers by hand.
echo "==> deprecation lane: no *_instrumented identifiers anywhere"
bad_shims=$(grep -rn --include='*.rs' '_instrumented' crates src tests || true)
if [ -n "$bad_shims" ]; then
  echo "*_instrumented identifiers reappeared (the twin API is retired):" >&2
  echo "$bad_shims" >&2
  exit 1
fi
cli_raw_telemetry=$(grep -rn --include='*.rs' -E 'NullSink|Tracer::disabled\(\)' crates/cli/src || true)
if [ -n "$cli_raw_telemetry" ]; then
  echo "CLI constructs sinks/tracers directly instead of using MineSession:" >&2
  echo "$cli_raw_telemetry" >&2
  exit 1
fi

# The line codecs and the streaming source share one record loop,
# `ByteLines::next_record`: it alone turns a bad unterminated last line
# into `UnexpectedEof` and checks the `Skip` budget, so a second
# recovery loop cannot regrow beside it. XES parses XML, not lines, and
# is exempt. Test modules (after `#[cfg(test)]`) are not scanned.
echo "==> one record loop: UnexpectedEof and over_budget only in ByteLines::next_record"
record_loop_sites=$(awk '
  FNR == 1 { fn_name = "" }
  /#\[cfg\(test\)\]/ { nextfile }
  match($0, /fn [a-z_0-9]+/) { fn_name = substr($0, RSTART + 3, RLENGTH - 3) }
  /LogError::UnexpectedEof \{/ { print FILENAME ":" FNR ": UnexpectedEof in fn " fn_name }
  /\.over_budget\(/ { print FILENAME ":" FNR ": over_budget in fn " fn_name }
' crates/log/src/codec/{mod,flowmark,seqs,jsonl}.rs $(find crates/log/src/stream -name '*.rs' | sort))
stray=$(printf '%s\n' "$record_loop_sites" | grep -v ' in fn next_record$' || true)
eof_count=$(printf '%s\n' "$record_loop_sites" | grep -c 'UnexpectedEof in fn next_record$' || true)
budget_count=$(printf '%s\n' "$record_loop_sites" | grep -c 'over_budget in fn next_record$' || true)
if [ -n "$stray" ] || [ "$eof_count" -ne 1 ] || [ "$budget_count" -ne 1 ]; then
  echo "the per-record recovery policy must live once, in ByteLines::next_record:" >&2
  echo "$record_loop_sites" >&2
  exit 1
fi

# START/END pairing lives once, in `validate::assemble_core`: the batch
# readers, the record-slice adapters and the follow assembler's
# per-case close all call it, so a second pairing loop cannot regrow
# beside it. A pairing loop is what constructs unmatched-START/END
# errors and dangling diagnostics; patterns (`Variant { .. }`,
# `Variant { .. } =>`, `Variant { .. } = x`) are not constructions.
# Test modules (after `#[cfg(test)]`) are not scanned.
echo "==> one assembly core: unmatched START/END built only in validate::assemble_core"
pairing_sites=$(awk '
  function close_at(s,   i, c) {
    for (i = 1; i <= length(s); i++) {
      c = substr(s, i, 1)
      if (c == "{") depth++
      else if (c == "}" && --depth == 0) return i
    }
    return 0
  }
  FNR == 1 { fn_name = ""; collecting = 0 }
  /#\[cfg\(test\)\]/ { nextfile }
  !collecting && match($0, /fn [a-z_0-9]+/) { fn_name = substr($0, RSTART + 3, RLENGTH - 3) }
  !collecting && match($0, /(LogError::Unmatched(End|Start)|Diagnostic::Dangling(End|Start)) *\{/) {
    collecting = 1; depth = 0; body = ""; site = FILENAME ":" FNR; site_fn = fn_name
    rest = substr($0, RSTART)
    variant = substr($0, RSTART, RLENGTH)
  }
  collecting {
    if (rest == "") rest = $0
    end = close_at(rest)
    if (end == 0) { body = body rest " "; rest = ""; next }
    body = body substr(rest, 1, end)
    after = substr(rest, end + 1)
    collecting = 0; rest = ""
    sub(/ *\{$/, "", variant)
    if (body !~ /\.\./ && after !~ /^[ \t]*[=|]/) print site ": " variant " in fn " site_fn
  }
' $(find crates/log/src -name '*.rs' | sort))
stray=$(printf '%s\n' "$pairing_sites" | grep -v '^crates/log/src/validate.rs:[0-9]*: .* in fn assemble_core$' || true)
core_count=$(printf '%s\n' "$pairing_sites" | grep -c ' in fn assemble_core$' || true)
if [ -n "$stray" ] || [ "$core_count" -ne 4 ]; then
  echo "START/END pairing must live once, in validate::assemble_core:" >&2
  echo "$pairing_sites" >&2
  exit 1
fi

# Every timed stage is measured once, by a `StageClock`, whose interval
# feeds the sink timer, the trace span and the registry histogram alike
# — so `--stats`, `--trace` and `--metrics` agree to the nanosecond. The
# retired per-view timers must not regrow beside it. Test modules
# (after `#[cfg(test)]`) and integration tests are not scanned.
echo "==> one clock: stage intervals only through StageClock"
clock_sites=$(awk '
  /#\[cfg\(test\)\]/ { nextfile }
  /WallStage|(^|[^A-Za-z0-9_])(stage_start|stage_end|observe_since)\(|ENABLED\.then\(Instant::now\)/ {
    print FILENAME ":" FNR ": " $0
  }
' $(find crates src -name '*.rs' -not -path '*/tests/*' | sort))
if [ -n "$clock_sites" ]; then
  echo "a second clock is timing a stage; route it through StageClock:" >&2
  echo "$clock_sites" >&2
  exit 1
fi

# Every metrics record declares its cells once, through
# `telemetry::Counters`, whose provided methods are the one JSON writer
# and the one table renderer. Per-type copies of those renderers must
# not regrow. Test modules (after `#[cfg(test)]`) and integration tests
# are not scanned.
echo "==> one counter record: metrics renderers only in core::telemetry"
renderer_sites=$(awk '
  /#\[cfg\(test\)\]/ { nextfile }
  /fn (write_json_object|format_nanos|render_table|write_json_fields)[^a-z_0-9]/ {
    print FILENAME ":" FNR ": " $0
  }
' $(find crates src -name '*.rs' -not -path '*/tests/*' -not -path 'crates/core/src/telemetry.rs' | sort))
if [ -n "$renderer_sites" ]; then
  echo "a metrics renderer is defined outside core::telemetry; declare cells via Counters:" >&2
  echo "$renderer_sites" >&2
  exit 1
fi

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

# The benchmark package (`benchmark/`, a cargo workspace of its own)
# calls the library API directly. Build and test it here, so an API
# change that breaks it fails the gate instead of the next benchmark
# run.
echo "==> benchmark package: build + test (benchmark/Cargo.toml)"
cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "==> corruption smoke subset"
cargo test -q --test corruption smoke_

# Streaming smoke: pipe a generated log through `mine --follow -` and
# require the exact edge set of the batch miner, plus an ingest section
# in the stats report. Guards the online pipeline end to end (source →
# assembler → online miner → CLI surface).
echo "==> streaming smoke: mine --follow parity with batch"
cargo build --release -q -p procmine-cli
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
./target/release/procmine generate --preset graph10 --executions 150 --seed 11 \
  -o "$smoke_dir/follow.fm" >/dev/null
./target/release/procmine mine "$smoke_dir/follow.fm" \
  | grep -E '^  .* -> ' | sort > "$smoke_dir/batch.edges"
./target/release/procmine mine --follow - --stats-json "$smoke_dir/follow-stats.json" \
  < "$smoke_dir/follow.fm" \
  | grep -E '^  .* -> ' | sort > "$smoke_dir/follow.edges"
if ! diff -u "$smoke_dir/batch.edges" "$smoke_dir/follow.edges"; then
  echo "mine --follow diverged from batch mining on the smoke log" >&2
  exit 1
fi
grep -q '"cases_evicted"' "$smoke_dir/follow-stats.json" || {
  echo "follow stats-json is missing the ingest section" >&2
  exit 1
}

# Crash-recovery smoke: SIGKILL a checkpointing `mine --follow` mid
# stream, let the log keep growing, resume from the checkpoint, and
# require the exact edge set of batch-mining the whole log. Guards the
# checkpoint/resume path end to end (atomic save → kill → load →
# validate → seek → continue).
echo "==> crash-recovery smoke: SIGKILL mid-follow, resume, diff vs batch"
./target/release/procmine generate --preset graph10 --executions 300 --seed 17 \
  -o "$smoke_dir/crash.fm" >/dev/null
# Split at a case boundary so the torn tail is growth, not corruption.
half=$(( $(wc -l < "$smoke_dir/crash.fm") / 2 ))
head -n "$half" "$smoke_dir/crash.fm" > "$smoke_dir/crash-live.fm"
first_case=$(head -n 1 "$smoke_dir/crash.fm" | cut -d, -f1)
./target/release/procmine mine --follow "$smoke_dir/crash-live.fm" \
  --idle-ms 30000 --poll-ms 20 \
  --checkpoint "$smoke_dir/crash.ckpt" --checkpoint-every 40 \
  >/dev/null 2>"$smoke_dir/crash.follow.err" &
follow_pid=$!
# Wait for the first checkpoint to land, then kill without warning.
for _ in $(seq 1 100); do
  [ -f "$smoke_dir/crash.ckpt" ] && break
  sleep 0.1
done
if ! [ -f "$smoke_dir/crash.ckpt" ]; then
  echo "follow session never wrote a checkpoint" >&2
  cat "$smoke_dir/crash.follow.err" >&2
  kill -9 "$follow_pid" 2>/dev/null || true
  exit 1
fi
kill -9 "$follow_pid" 2>/dev/null || true
wait "$follow_pid" 2>/dev/null || true
# The log keeps growing while the miner is down.
tail -n +"$(( half + 1 ))" "$smoke_dir/crash.fm" >> "$smoke_dir/crash-live.fm"
./target/release/procmine mine --follow "$smoke_dir/crash-live.fm" \
  --checkpoint "$smoke_dir/crash.ckpt" --checkpoint-every 40 \
  2>"$smoke_dir/crash.resume.err" \
  | grep -E '^  .* -> ' | sort > "$smoke_dir/crash-resumed.edges"
grep -q 'resuming from checkpoint @ byte' "$smoke_dir/crash.resume.err" || {
  echo "resumed session did not report the checkpoint resume:" >&2
  cat "$smoke_dir/crash.resume.err" >&2
  exit 1
}
./target/release/procmine mine "$smoke_dir/crash.fm" \
  | grep -E '^  .* -> ' | sort > "$smoke_dir/crash-batch.edges"
if ! diff -u "$smoke_dir/crash-batch.edges" "$smoke_dir/crash-resumed.edges"; then
  echo "resumed mine --follow diverged from batch mining after SIGKILL" >&2
  exit 1
fi

# Perf-regression smoke: run the fixed scenario matrix once in smoke
# mode, validate the report against the perfsuite schema, and let the
# binary's built-in disabled-tracer overhead guard gate the run. The
# report lands in target/ci-artifacts/ for the workflow to upload.
echo "==> perfsuite smoke + schema validation"
mkdir -p target/ci-artifacts
cargo run --release -q -p procmine-bench --bin perfsuite -- \
  --smoke --out target/ci-artifacts/BENCH_perfsuite_smoke.json
cargo run --release -q -p procmine-bench --bin perfsuite -- \
  --check-schema target/ci-artifacts/BENCH_perfsuite_smoke.json

# Perf gate table: on the committed baseline (not a fresh run, so the
# gate is deterministic), every row of perfsuite's `GATES` table must
# hold: codec.xes within 2x of codec.jsonl, stream.checkpoint within
# 1.1x of stream.mine, mine.general within 1.0x of mine.legacy.
echo "==> perf gate table: saved-baseline cell ratios within their limits"
cargo run --release -q -p procmine-bench --bin perfsuite -- \
  --assert-gates BENCH_perfsuite.json

# Metrics lane: run the follow pipeline with cadenced --metrics-every
# exports over a case-boundary prefix of a log and then the full log
# (the second run reprocesses a superset from scratch, so every counter
# is deterministically >= the first scrape), then validate with the
# in-repo checker: exposition shape (HELP/TYPE per family, no duplicate
# series), counter monotonicity across the two scrapes, and the JSON
# snapshot against its schema.
echo "==> metrics lane: follow --metrics-every + exposition/schema validation"
./target/release/procmine generate --preset graph10 --executions 200 --seed 23 \
  -o "$smoke_dir/metrics.fm" >/dev/null
total=$(wc -l < "$smoke_dir/metrics.fm")
half=$(( total / 2 ))
# Cut at the next case boundary so the prefix holds only whole cases.
cut_line=$(awk -F, -v h="$half" 'NR<=h {prev=$1; next} $1!=prev {print NR-1; exit}' \
  "$smoke_dir/metrics.fm")
head -n "${cut_line:-$total}" "$smoke_dir/metrics.fm" > "$smoke_dir/metrics-prefix.fm"
./target/release/procmine mine --follow "$smoke_dir/metrics-prefix.fm" \
  --metrics "$smoke_dir/scrape1.prom" --metrics-every 50 >/dev/null
./target/release/procmine mine --follow "$smoke_dir/metrics.fm" \
  --metrics "$smoke_dir/scrape2.prom" --metrics-every 50 >/dev/null
./target/release/procmine report "$smoke_dir/scrape1.prom" --validate
./target/release/procmine report "$smoke_dir/scrape2.prom" \
  --prev "$smoke_dir/scrape1.prom" --validate
./target/release/procmine mine --follow "$smoke_dir/metrics.fm" \
  --metrics "$smoke_dir/metrics-snapshot.json" --metrics-every 50 >/dev/null
./target/release/procmine report "$smoke_dir/metrics-snapshot.json" --validate

echo "ci: OK"
