#!/usr/bin/env python3
"""A/B-records the repository benchmark: a parent commit against the work tree.

Run from anywhere in a checkout:

    python3 tools/bench_ab.py --parent REV --seed N --out BENCH_<n>.json \
        [--claim WORKLOAD/METRIC]

The working tree is the change side. Every other setting comes from
BENCHMARK.json: the command, the workloads, run_seconds, and each end-to-end
metric's `better` and `bound`.

1. REV is extracted with `git archive` under .bench_build/ab/. Its perfbench/
   and BENCHMARK.json must be byte-identical to the working tree's.
2. Each side is built into its own CARGO_TARGET_DIR before anything is timed.
3. Per workload, 10 untraced pairs run on seeds N..N+9, parent first in even
   pairs and change first in odd ones. One traced pair runs on seed N+10; it
   is recorded but its metrics are not judged.
4. The record holds every run's result line, the host, REV, HEAD and whether
   the tree has uncommitted changes. For each workload and end-to-end metric
   it holds each side's median and quartiles and the change's wins out of 10,
   and it holds the verdict (see `verdict`).

Exit status: 0 when the verdict passes; 1 when it fails (the record is
written either way); 2 on a usage error, an unknown REV, a perfbench/ or
BENCHMARK.json that differs between the sides, or a side that does not
build (no record is written then).
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# A claim needs wins in nine tenths of the pairs; ten is the fewest pairs
# that leave room for one loss.
PAIRS = 10


def quantile(values, q):
    """Linear interpolation between order statistics, as perfbench's Quantile."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def quartiles(values):
    return {"median": quantile(values, 0.5), "q1": quantile(values, 0.25),
            "q3": quantile(values, 0.75)}


def ratio(x, base):
    """x relative to |base|; a nonzero x over a zero base is infinite."""
    if base:
        return x / abs(base)
    return math.copysign(math.inf, x) if x else 0.0


def run_ok(run):
    result = run["result"]
    return (run["exit"] == 0 and result is not None
            and result.get("correct") is True)


def verdict(manifest, runs, claim=None):
    """Judges the runs of a record against the manifest (BENCHMARK.json).

    Each run is a dict with "workload", "pair", "side" ("parent" or
    "change"), "trace", "exit" and "result" (the parsed result line, or None).
    `claim` is "WORKLOAD/METRIC" or None. The rules:

    - Failures: a failed run (nonzero exit, no result line, or `correct` not
      true) fails the verdict, traced or not; so does a larger
      failed/attempted share of operations on the change side of a workload.
    - The claimed metric: the change reads better in at least nine tenths of
      the pairs, ties counting for neither side, and its median is better
      than the parent's by more than the parent's q3 - q1.
    - Every other end-to-end metric on each workload: the change's median is
      no worse than the parent's by more than the metric's `bound`, relative
      to the parent's median, in its `better` direction. Where the parent's
      (q3 - q1) / median exceeds the bound the metric is unresolved, which
      fails, unless every change run reads better than every parent run.

    Returns {"passed", "problems", "failed_share", "metrics"}; "metrics" maps
    workload -> metric -> the two sides' quartiles, the pair counts and a
    status: "ok", "worse", "unresolved", "claim met" or "claim not met".
    """
    problems = []
    for run in runs:
        if not run_ok(run):
            problems.append("%s %s pair %d (seed %s%s) failed: exit %d" % (
                run["workload"], run["side"], run["pair"], run["seed"],
                ", traced" if run["trace"] else "", run["exit"]))
    failed_share = {}
    metrics = {}
    for workload in (w["name"] for w in manifest["workloads"]):
        results = {"parent": {}, "change": {}}
        for run in runs:
            if run["workload"] == workload and not run["trace"] and run_ok(run):
                results[run["side"]][run["pair"]] = run["result"]
        share = {}
        for side, by_pair in results.items():
            attempted = sum(r["attempted"] for r in by_pair.values())
            failed = sum(r["failed"] for r in by_pair.values())
            share[side] = failed / attempted if attempted else 0.0
        failed_share[workload] = share
        if share["change"] > share["parent"]:
            problems.append("%s: failed share %.3g on the change side, %.3g on "
                            "the parent's" % (workload, share["change"],
                                              share["parent"]))
        pairs = sorted(results["parent"].keys() & results["change"].keys())
        if not pairs:
            continue
        metrics[workload] = {}
        for metric in manifest["end_to_end"]:
            name = metric["name"]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            parent = [results["parent"][p]["metrics"][name]["value"]
                      for p in pairs]
            change = [results["change"][p]["metrics"][name]["value"]
                      for p in pairs]
            # Better is smaller in `sign * value`, whichever way the metric goes.
            wins = sum(sign * c < sign * p for p, c in zip(parent, change))
            losses = sum(sign * c > sign * p for p, c in zip(parent, change))
            ps, cs = quartiles(parent), quartiles(change)
            iqr = ps["q3"] - ps["q1"]
            gain = sign * (ps["median"] - cs["median"])
            spread = ratio(iqr, ps["median"])
            if claim == workload + "/" + name:
                met = 10 * wins >= 9 * len(pairs) and gain > iqr
                status = "claim met" if met else "claim not met"
            elif spread > metric["bound"]:
                all_better = (max(sign * c for c in change)
                              < min(sign * p for p in parent))
                status = "ok" if all_better else "unresolved"
            else:
                status = "worse" if -ratio(gain, ps["median"]) > metric["bound"] \
                    else "ok"
            if status not in ("ok", "claim met"):
                problems.append("%s/%s: %s (median %.6g -> %.6g, parent "
                                "spread %.3f, bound %g, wins %d/%d)" % (
                                    workload, name, status, ps["median"],
                                    cs["median"], spread, metric["bound"],
                                    wins, len(pairs)))
            metrics[workload][name] = {
                "unit": metric["unit"], "better": metric["better"],
                "bound": metric["bound"], "parent": ps, "change": cs,
                "change_rel": ratio(cs["median"] - ps["median"], ps["median"]),
                "parent_spread": spread, "pairs": len(pairs), "wins": wins,
                "losses": losses, "ties": len(pairs) - wins - losses,
                "status": status}
    return {"passed": not problems, "problems": problems,
            "failed_share": failed_share, "metrics": metrics}


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()


def benchmark_files(tree):
    files = {Path("BENCHMARK.json")} if (tree / "BENCHMARK.json").is_file() \
        else set()
    return files | {p.relative_to(tree)
                    for p in (tree / "perfbench").rglob("*") if p.is_file()}


def differing_benchmark_files(a, b):
    """Files under perfbench/, and BENCHMARK.json, that differ between trees."""
    fa, fb = benchmark_files(a), benchmark_files(b)
    differ = (fa ^ fb) | {p for p in fa & fb
                          if (a / p).read_bytes() != (b / p).read_bytes()}
    return sorted(str(p) for p in differ)


def build(tree, target):
    """Builds tree's perfbench where perfbench/run.py expects it."""
    out = target / "perfbench"
    steps = [["cmake", "-S", str(tree / "perfbench"), "-B", str(out),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(out), "-j",
              str(min(os.cpu_count() or 1, 4))]]
    return all(subprocess.run(step, stdout=sys.stderr).returncode == 0
               for step in steps)


def host():
    model, avx2 = "", False
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                key, _, value = line.partition(":")
                if key.strip() == "model name" and not model:
                    model = value.strip()
                elif key.strip() == "flags":
                    avx2 = avx2 or "avx2" in value.split()
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "avx2": avx2}


def run_once(manifest, tree, target, workload, pair, seed, side, trace):
    command = manifest["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(manifest["run_seconds"]),
        "--trace", "1" if trace else "0"]
    start = time.monotonic()
    proc = subprocess.run(command, cwd=tree, text=True,
                          env=dict(os.environ, CARGO_TARGET_DIR=str(target)),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    run = {"workload": workload, "pair": pair, "seed": seed, "side": side,
           "trace": trace, "exit": proc.returncode,
           "wall_s": round(time.monotonic() - start, 1), "result": result}
    if not run_ok(run):
        run["stderr_tail"] = proc.stderr.splitlines()[-20:]
    print("bench_ab: %s pair %d %s seed %d%s: exit %d in %.0f s"
          % (workload, pair, side, seed, " traced" if trace else "",
             proc.returncode, run["wall_s"]), file=sys.stderr, flush=True)
    return run


def print_summary(report):
    print("%-8s %-18s %30s %12s %8s %6s  %s" % (
        "workload", "metric", "parent median [q1, q3]", "change", "delta",
        "wins", "status"))
    for workload, rows in report["metrics"].items():
        for name, row in rows.items():
            p, c = row["parent"], row["change"]
            print("%-8s %-18s %30s %12.6g %+7.1f%% %3d/%-2d  %s" % (
                workload, name, "%.6g [%.6g, %.6g]" % (
                    p["median"], p["q1"], p["q3"]),
                c["median"], 100 * row["change_rel"], row["wins"],
                row["pairs"], row["status"]))
    for problem in report["problems"]:
        print("problem: " + problem)
    print("verdict: " + ("pass" if report["passed"] else "FAIL"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the parent revision")
    parser.add_argument("--seed", required=True, type=int,
                        help="first seed; the runs use N..N+10")
    parser.add_argument("--out", required=True, type=Path,
                        help="the record to write, e.g. BENCH_<n>.json")
    parser.add_argument("--claim", metavar="WORKLOAD/METRIC",
                        help="the end-to-end metric the change claims to "
                             "improve, on one workload")
    args = parser.parse_args()
    if not args.out.resolve().parent.is_dir():
        parser.error("--out %s: no such directory" % args.out.parent)
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.claim is not None:
        workload, _, metric = args.claim.partition("/")
        if (workload not in (w["name"] for w in manifest["workloads"])
                or metric not in (m["name"] for m in manifest["end_to_end"])):
            parser.error("--claim %s names no workload/end-to-end metric of "
                         "BENCHMARK.json" % args.claim)

    try:
        parent_commit = git("rev-parse", "--verify", args.parent + "^{commit}")
    except subprocess.CalledProcessError:
        print("bench_ab: unknown revision " + args.parent, file=sys.stderr)
        return 2
    work = ROOT / ".bench_build" / "ab"
    parent_tree = work / ("parent-" + parent_commit[:12])
    shutil.rmtree(parent_tree, ignore_errors=True)
    parent_tree.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", parent_commit], cwd=ROOT,
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", str(parent_tree)],
                           stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        print("bench_ab: could not extract " + args.parent, file=sys.stderr)
        return 2
    differ = differing_benchmark_files(parent_tree, ROOT)
    if differ:
        print("bench_ab: the benchmark differs between %s and the working "
              "tree: %s" % (args.parent, ", ".join(differ)), file=sys.stderr)
        return 2

    change = {"head": git("rev-parse", "HEAD"),
              "uncommitted_changes": bool(git("status", "--porcelain"))}
    sides = {"parent": (parent_tree, work / ("target-parent-" +
                                             parent_commit[:12])),
             "change": (ROOT, work / "target-change")}
    for side, (tree, target) in sides.items():
        if not build(tree, target):
            print("bench_ab: the %s side does not build" % side,
                  file=sys.stderr)
            return 2

    runs = []
    for workload in (w["name"] for w in manifest["workloads"]):
        for pair in range(PAIRS + 1):
            order = ("parent", "change") if pair % 2 == 0 else \
                ("change", "parent")
            for side in order:
                runs.append(run_once(manifest, *sides[side], workload, pair,
                                     args.seed + pair, side,
                                     trace=pair == PAIRS))

    report = verdict(manifest, runs, args.claim)
    record = {
        "schema": "bench-ab-v1",
        "parent": {"rev": args.parent, "commit": parent_commit},
        "change": change,
        "host": host(),
        "benchmark": {"command": manifest["command"],
                      "run_seconds": manifest["run_seconds"], "pairs": PAIRS,
                      "seeds": [args.seed, args.seed + PAIRS - 1],
                      "traced_seed": args.seed + PAIRS},
        "claim": args.claim,
        "verdict": {"passed": report["passed"],
                    "problems": report["problems"]},
        "failed_share": report["failed_share"],
        "metrics": report["metrics"],
        "runs": runs,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print_summary(report)
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
