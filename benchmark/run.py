#!/usr/bin/env python3
"""Builds and runs the procmine benchmark for one workload.

    python3 benchmark/run.py --workload batch-g10 --seed 1 --seconds 20 --trace 0

Run it from the root of the repository. It builds `benchmark/` (a cargo
package of its own, into $CARGO_TARGET_DIR, default `.bench_build`),
generates the workload's input from the seed under `.bench_work/`, runs
the measurement in a fresh process, and removes the input again. The
report ends with one JSON line: the end-to-end metrics with `--trace 0`,
the per-layer metrics with `--trace 1`, as named in BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Every child gets a deadline, so a run ends within 180 seconds once the
# benchmark is built.
SETUP_TIMEOUT_S = 60
MEASURE_SLACK_S = 90


def fail(message):
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout):
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"`{' '.join(map(str, cmd[:2]))}` exceeded {timeout} s")
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail(f"`{' '.join(map(str, cmd[:2]))}` exited with {done.returncode}")
    return done.stdout.splitlines()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail(f"unknown workload `{args.workload}`")
    for needed in ("crates", "vendor"):
        if not (ROOT / needed).is_dir():
            fail(f"`{needed}/` is missing: run from a full checkout of the repository")

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        env={**os.environ, "CARGO_TARGET_DIR": str(target)},
    )
    if build.returncode != 0:
        fail("build failed")
    binary = target / "release" / "procmine-benchmark"

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        common = ["--workload", args.workload, "--dir", str(work)]
        setup = json.loads(run(
            [binary, "setup", *common, "--seed", str(args.seed)],
            SETUP_TIMEOUT_S,
        )[-1])
        lines = run(
            [binary, "measure", *common, "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            args.seconds + MEASURE_SLACK_S,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's input is still there

    result = json.loads(lines[-1])
    print("\n".join(lines[:-1]))
    print(f"  setup_s (median of {setup['reps']}) {setup['setup_s']:.6f} s")
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": setup["setup_s"], "unit": "s"}
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        fail(f"reported metrics {sorted(got.items())} differ from BENCHMARK.json {sorted(want.items())}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
