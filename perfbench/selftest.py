#!/usr/bin/env python3
"""Self-tests for the benchmark's own logic.

    python3 perfbench/run.py --self-test     (builds first, then runs these)

They check the tail rule, that every metric name is well formed and
matches BENCHMARK.json, and that the fleet's CPU clock charges the
CPU time of reaped child processes.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402


def rec(value, ok=True):
    return {"ttd_s": value, "tc": int(value), "ok": ok}


class TailRule(unittest.TestCase):
    def test_ten_samples_beyond(self):
        for n in range(21, 300, 7):
            values = list(range(n))
            value, pct = run.tail(values)
            self.assertEqual(sum(1 for v in values if v > value), 10)
            self.assertAlmostEqual(pct, 100.0 * (n - 10) / n)

    def test_small_samples_report_the_maximum(self):
        for n in range(1, 21):
            value, pct = run.tail(list(range(n)))
            self.assertEqual((value, pct), (n - 1, 100.0))

    def test_misses_sort_last(self):
        # 25 detections and 5 misses with small times: the misses must
        # occupy the top ranks, so the tail lands on a miss only when
        # fewer than ten samples lie beyond it.
        records = [rec(10.0 + i) for i in range(25)] + [rec(0.5, ok=False)] * 5
        ranked = run.ranked(records, "ttd_s")
        self.assertEqual(ranked[-5:], [0.5] * 5)
        self.assertEqual(ranked[0], 10.0)
        value, _ = run.tail(ranked)
        self.assertEqual(value, 29.0)
        self.assertEqual(run.p50(ranked), 24.0)

    def test_misses_can_be_the_median(self):
        records = [rec(1.0)] * 4 + [rec(0.1, ok=False)] * 5
        self.assertEqual(run.p50(run.ranked(records, "ttd_s")), 0.1)


class MetricNames(unittest.TestCase):
    def test_names_and_units_are_well_formed(self):
        names = [n for n, _ in run.END_TO_END + run.PER_LAYER]
        self.assertEqual(len(names), len(set(names)))
        for name, unit in run.END_TO_END + run.PER_LAYER:
            self.assertRegex(name, r"^[A-Za-z0-9_.-]+$")
            self.assertRegex(name, run.NAME_RE)
            self.assertRegex(unit, r"^[A-Za-z0-9_/%.-]{1,16}$")

    def test_benchmark_json_matches(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         run.PER_LAYER)
        for w in spec["workloads"]:
            self.assertRegex(w["name"], run.NAME_RE)


class CpuClock(unittest.TestCase):
    def test_tree_clock_includes_reaped_children(self):
        exe = os.path.join(HERE, "..", run.EXE)
        out = subprocess.run([exe, "selftest"], stdout=subprocess.PIPE, check=False)
        result = json.loads(out.stdout.decode().strip().splitlines()[-1])
        self.assertTrue(result["ok"], result)
        self.assertGreaterEqual(result["tree_delta_s"], 0.9 * result["child_burn_s"])


if __name__ == "__main__":
    unittest.main(verbosity=2)
