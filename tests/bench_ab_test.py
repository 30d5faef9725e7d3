#!/usr/bin/env python3
"""Tier-1 test of tools/bench_ab.py: its verdict rules, and the tool end to end.

The verdict cases build synthetic records from BENCHMARK.json's metric list.
The end-to-end cases run the tool in a scratch git repository whose
perfbench/run.py is a stub that prints a result line in a few milliseconds.
Run it directly or through ctest (`bench_ab_test`).
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # keep tools/ free of __pycache__
sys.path.insert(0, str(ROOT / "tools"))
import bench_ab  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
TIMING_UNITS = ("s", "us")


def base(workload, metric, pair):
    """A parent value: 10.0..10.9 over the pairs (spread 0.043 of the median)."""
    del workload, metric
    return 10.0 + 0.1 * pair


def make_runs(change=None, parent=base, failed=None):
    """Runs for every workload: 10 untraced pairs and a traced pair.

    `parent` and `change` map (workload, metric, pair) to a value; `change`
    defaults to the parent's value. `failed` maps (workload, side) to the
    failed-operation count of each of that side's runs.
    """
    change = change or parent
    runs = []
    for workload in (w["name"] for w in MANIFEST["workloads"]):
        for pair in range(bench_ab.PAIRS + 1):
            trace = pair == bench_ab.PAIRS
            for side, value in (("parent", parent), ("change", change)):
                metrics = {m["name"]: {"value": value(workload, m["name"], pair),
                                       "unit": m["unit"]}
                           for m in MANIFEST["end_to_end"]}
                result = {"correct": True, "attempted": 1000,
                          "failed": (failed or {}).get((workload, side), 0),
                          "metrics": metrics}
                runs.append({"workload": workload, "pair": pair,
                             "seed": 100 + pair, "side": side, "trace": trace,
                             "exit": 0, "result": result})
    return runs


def only(workload, metric, value):
    """A change that differs from the parent on one metric of one workload."""
    return lambda w, m, pair: (value(pair) if (w, m) == (workload, metric)
                               else base(w, m, pair))


class VerdictTest(unittest.TestCase):
    def status(self, report, workload, metric):
        return report["metrics"][workload][metric]["status"]

    def test_identical_sides_pass_and_claim_nothing(self):
        report = bench_ab.verdict(MANIFEST, make_runs())
        self.assertTrue(report["passed"], report["problems"])
        self.assertEqual(report["problems"], [])
        for rows in report["metrics"].values():
            for row in rows.values():
                self.assertEqual(row["status"], "ok")
                self.assertEqual((row["wins"], row["ties"]), (0, 10))
        claimed = bench_ab.verdict(MANIFEST, make_runs(), "train/train_s")
        self.assertFalse(claimed["passed"])
        self.assertEqual(self.status(claimed, "train", "train_s"),
                         "claim not met")

    def test_doubled_timings_are_flagged(self):
        units = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]}
        slower = make_runs(lambda w, m, pair: base(w, m, pair) * (
            2.0 if units[m] in TIMING_UNITS else 1.0))
        report = bench_ab.verdict(MANIFEST, slower)
        self.assertFalse(report["passed"])
        for rows in report["metrics"].values():
            for name, row in rows.items():
                self.assertEqual(row["status"], "worse"
                                 if units[name] in TIMING_UNITS else "ok", name)

    def test_bound_is_relative_to_the_parent_median(self):
        # Parent median 10.45; the bound is 0.25.
        within = make_runs(only("serve", "serve_cpu_us",
                                lambda pair: base("", "", pair) * 1.24))
        self.assertTrue(bench_ab.verdict(MANIFEST, within)["passed"])
        beyond = make_runs(only("serve", "serve_cpu_us",
                                lambda pair: base("", "", pair) * 1.26))
        report = bench_ab.verdict(MANIFEST, beyond)
        self.assertFalse(report["passed"])
        self.assertEqual(self.status(report, "serve", "serve_cpu_us"), "worse")
        self.assertEqual(self.status(report, "train", "serve_cpu_us"), "ok")

    def test_higher_is_better_metrics_worsen_downwards(self):
        manifest = json.loads(json.dumps(MANIFEST))
        manifest["end_to_end"][0]["better"] = "higher"
        name = manifest["end_to_end"][0]["name"]
        lower = make_runs(only("train", name,
                               lambda pair: base("", "", pair) * 0.7))
        report = bench_ab.verdict(manifest, lower)
        self.assertEqual(self.status(report, "train", name), "worse")
        self.assertEqual(report["metrics"]["train"][name]["losses"], 10)

    def claim(self, change_by_pair):
        runs = make_runs(only("train", "train_s", change_by_pair))
        report = bench_ab.verdict(MANIFEST, runs, "train/train_s")
        return report, report["metrics"]["train"]["train_s"]

    def test_claim_needs_nine_wins_beyond_the_parent_iqr(self):
        # The parent's IQR is 0.45; the change is 1.0 lower but for the
        # pairs listed as losses.
        def change(losses, by=1.0):
            return lambda pair: base("", "", pair) + (
                by if pair in losses else -by)
        report, row = self.claim(change({9}))
        self.assertTrue(report["passed"], report["problems"])
        self.assertEqual((row["status"], row["wins"]), ("claim met", 9))
        report, row = self.claim(change({8, 9}))
        self.assertFalse(report["passed"])
        self.assertEqual((row["status"], row["wins"]), ("claim not met", 8))
        report, row = self.claim(change({9}, by=0.05))
        self.assertFalse(report["passed"])
        self.assertEqual((row["status"], row["wins"]), ("claim not met", 9))

    def test_tied_pairs_count_for_neither_side(self):
        def change(ties):
            return lambda pair: base("", "", pair) - (0.0 if pair in ties
                                                      else 1.0)
        report, row = self.claim(change({9}))
        self.assertEqual((row["wins"], row["losses"], row["ties"]), (9, 0, 1))
        self.assertEqual(row["status"], "claim met")
        report, row = self.claim(change({8, 9}))
        self.assertEqual((row["wins"], row["losses"], row["ties"]), (8, 0, 2))
        self.assertEqual(row["status"], "claim not met")

    def test_wide_parent_spread_is_unresolved_unless_all_change_runs_better(
            self):
        def wide(w, m, pair):
            # 10..19: (q3 - q1) / median = 4.5 / 14.5 = 0.31 > 0.25.
            return (10.0 + pair) if (w, m) == ("serve", "train_s") \
                else base(w, m, pair)
        report = bench_ab.verdict(MANIFEST, make_runs(parent=wide))
        self.assertFalse(report["passed"])
        self.assertEqual(self.status(report, "serve", "train_s"), "unresolved")
        self.assertEqual(self.status(report, "train", "train_s"), "ok")
        # Better in every pair, but the best parent run beats one change run.
        overlap = bench_ab.verdict(MANIFEST, make_runs(
            lambda w, m, pair: wide(w, m, pair) - (
                0.5 if (w, m) == ("serve", "train_s") else 0.0), wide))
        self.assertEqual(self.status(overlap, "serve", "train_s"),
                         "unresolved")
        better = bench_ab.verdict(MANIFEST, make_runs(
            lambda w, m, pair: 9.0 if (w, m) == ("serve", "train_s")
            else base(w, m, pair), wide))
        self.assertTrue(better["passed"], better["problems"])
        self.assertEqual(self.status(better, "serve", "train_s"), "ok")

    def test_failures(self):
        # A nonzero exit, a missing result line or a failed output check, on
        # the traced change run of the last workload.
        for key, value in (("exit", 1), ("result", None), ("correct", False)):
            runs = make_runs()
            if key == "correct":
                runs[-1]["result"]["correct"] = value
            else:
                runs[-1][key] = value
            report = bench_ab.verdict(MANIFEST, runs)
            self.assertFalse(report["passed"], key)
            self.assertEqual(len(report["problems"]), 1, key)
        report = bench_ab.verdict(MANIFEST, make_runs(
            failed={("serve", "change"): 1}))
        self.assertFalse(report["passed"])
        self.assertEqual(report["failed_share"]["serve"],
                         {"parent": 0.0, "change": 0.001})
        report = bench_ab.verdict(MANIFEST, make_runs(
            failed={("serve", "parent"): 1}))
        self.assertTrue(report["passed"], report["problems"])


STUB_RUN = '''\
import argparse, json, os, sys
from pathlib import Path
root = Path(__file__).resolve().parent.parent
parser = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    parser.add_argument(flag, required=True)
args = parser.parse_args()
if not (Path(os.environ["CARGO_TARGET_DIR"]) / "perfbench" /
        "CMakeCache.txt").is_file():
    sys.exit(3)  # not built before the run
manifest = json.loads((root / "BENCHMARK.json").read_text())
factor = float((root / "src" / "factor").read_text())
metrics = {}
for m in manifest["per_layer" if args.trace == "1" else "end_to_end"]:
    value = 1.0 + 0.01 * (int(args.seed) % 7)
    if m["unit"] in ("s", "us"):
        value *= factor
    metrics[m["name"]] = {"value": value, "unit": m["unit"]}
print(json.dumps({"correct": True, "attempted": 10, "failed": 0,
                  "metrics": metrics}))
'''


class EndToEndTest(unittest.TestCase):
    """The tool against a stub benchmark in a scratch repository."""

    def setUp(self):
        self.repo = Path(tempfile.mkdtemp(prefix="bench_ab_test_"))
        (self.repo / "tools").mkdir()
        (self.repo / "perfbench").mkdir()
        (self.repo / "src").mkdir()
        shutil.copy(ROOT / "tools" / "bench_ab.py", self.repo / "tools")
        shutil.copy(ROOT / "BENCHMARK.json", self.repo)
        (self.repo / "perfbench" / "run.py").write_text(STUB_RUN)
        (self.repo / "perfbench" / "CMakeLists.txt").write_text(
            "cmake_minimum_required(VERSION 3.16)\nproject(stub NONE)\n")
        (self.repo / "src" / "factor").write_text("1")
        (self.repo / ".gitignore").write_text(".bench_build/\n")
        self.git("init", "-q")
        self.git("add", "-A")
        self.git("-c", "user.name=t", "-c", "user.email=t@t", "commit", "-qm",
                 "parent")

    def tearDown(self):
        shutil.rmtree(self.repo)

    def git(self, *args):
        subprocess.run(["git", *args], cwd=self.repo, check=True)

    def run_tool(self):
        out = self.repo / "record.json"
        proc = subprocess.run(
            [sys.executable, "-B", str(self.repo / "tools" / "bench_ab.py"),
             "--parent", "HEAD", "--seed", "7", "--out", str(out)],
            cwd=self.repo, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        record = json.loads(out.read_text()) if out.is_file() else None
        return proc.returncode, record, proc.stderr

    def test_unchanged_tree_passes_with_a_complete_record(self):
        code, record, _ = self.run_tool()
        self.assertEqual(code, 0)
        self.assertTrue(record["verdict"]["passed"])
        self.assertFalse(record["change"]["uncommitted_changes"])
        for workload in ("train", "serve"):
            runs = [r for r in record["runs"] if r["workload"] == workload]
            self.assertEqual(len(runs), 2 * (bench_ab.PAIRS + 1))
            self.assertEqual([r["seed"] for r in runs[::2]],
                             list(range(7, 18)))
            firsts = [r["side"] for r in runs[::2]]
            self.assertEqual(firsts[:4],
                             ["parent", "change", "parent", "change"])
            self.assertEqual([r["trace"] for r in runs].count(True), 2)
            self.assertTrue(all(r["exit"] == 0 for r in runs))
            self.assertEqual(set(record["metrics"][workload]),
                             {m["name"] for m in MANIFEST["end_to_end"]})

    def test_slower_library_fails(self):
        (self.repo / "src" / "factor").write_text("2")
        code, record, _ = self.run_tool()
        self.assertEqual(code, 1)
        self.assertTrue(record["change"]["uncommitted_changes"])
        self.assertEqual(record["metrics"]["train"]["train_s"]["status"],
                         "worse")

    def test_differing_benchmark_exits_2_without_a_record(self):
        with open(self.repo / "perfbench" / "run.py", "a") as run:
            run.write("# edited\n")
        code, record, stderr = self.run_tool()
        self.assertEqual((code, record), (2, None))
        self.assertIn("differs", stderr)
        self.assertIn("perfbench/run.py", stderr)


if __name__ == "__main__":
    unittest.main()
