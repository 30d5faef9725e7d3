#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload train|online|serve --seed N \
        --seconds S --trace 0|1

The first run configures and builds perfbench/CMakeLists.txt (the library
from src/ plus the benchmark program) under $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench; later runs rebuild incrementally. Build
output goes to stderr, so the last line of stdout is the benchmark's JSON
result. The exit status is the benchmark program's: 0 when every output
check passed. A result line whose metrics are not exactly the ones
BENCHMARK.json lists for the run's mode (end_to_end untraced, per_layer
traced), in their units, also exits nonzero.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A run measures for at most a minute plus set-up; anything near this is hung.
RUN_TIMEOUT_S = 175


def build_dir() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(out: Path) -> bool:
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(os.cpu_count() or 1, 4))
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, check=False).returncode:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def check_result(line: str, trace: bool) -> bool:
    """Holds the result line against the manifest's metrics and units."""
    manifest = ROOT / "BENCHMARK.json"
    if not manifest.is_file():
        print("perfbench: no BENCHMARK.json to check the result against",
              file=sys.stderr)
        return True
    wanted = json.loads(manifest.read_text())[
        "per_layer" if trace else "end_to_end"]
    try:
        result = json.loads(line)
    except ValueError:
        print("perfbench: the last line is not a JSON result", file=sys.stderr)
        return False
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    expected = {m["name"]: m["unit"] for m in wanted}
    if got == expected:
        return True
    for name in sorted(expected.keys() - got.keys()):
        print("perfbench: result lacks metric " + name, file=sys.stderr)
    for name in sorted(got.keys() - expected.keys()):
        print("perfbench: result has unlisted metric " + name, file=sys.stderr)
    for name in sorted(expected.keys() & got.keys()):
        if expected[name] != got[name]:
            print("perfbench: metric %s in %s, listed in %s"
                  % (name, got[name], expected[name]), file=sys.stderr)
    return False


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["train", "online", "serve"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not (ROOT / "src" / "core" / "eadrl.h").is_file():
        print("perfbench: no library sources under %s/src; run it from a "
              "checkout of the repository" % ROOT, file=sys.stderr)
        return 2
    out = build_dir()
    if not build(out):
        return 3
    work = out / "work"
    work.mkdir(parents=True, exist_ok=True)
    command = [str(out / "eadrl_perfbench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", repr(args.seconds),
               "--trace", args.trace,
               "--work-dir", str(work)]
    sys.stdout.flush()
    try:
        run = subprocess.run(command, check=False, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 4
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    lines = run.stdout.splitlines()
    if run.returncode == 0 and not (
            lines and check_result(lines[-1], args.trace == "1")):
        return 5
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
