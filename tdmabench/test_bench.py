#!/usr/bin/env python3
"""Tests of the benchmark itself.

Run from the repository root (builds first, then takes about a minute
and a half):

    python3 tdmabench/test_bench.py

The C++ self-test covers the percentile rule, the output gate on a
coloring with one corrupted arc, metric-name syntax and same-seed
determinism on scaled-down workloads. The tests below run every real
workload briefly through run.py's own functions and check the result
line, the metric set of BENCHMARK.json and the span file.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

# Spans every traced run of a workload must contain: one per layer call.
LAYER_SPANS = {
    "field-sync": {"graph.generate", "coloring.index_build", "sim.sync.run",
                   "coloring.check", "tdma.build", "tdma.replay"},
    "field-async-burst": {"graph.generate", "coloring.index_build",
                          "sim.async.run", "coloring.check", "tdma.build",
                          "tdma.replay"},
    "soak-churn": {"soak.init", "soak.step", "coloring.index_build",
                   "coloring.check", "tdma.build", "tdma.replay"},
    "soak-distributed": {"soak.init", "soak.step", "coloring.index_build",
                         "coloring.check", "tdma.build", "tdma.replay"},
}


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.out = run.build(("tdmabench", "tdmabench_selftest"))
        cls.spec = run.load_spec()

    def test_selftest(self):
        proc = subprocess.run([str(self.out / "tdmabench_selftest")])
        self.assertEqual(proc.returncode, 0)

    def test_spec_names(self):
        names = [m["name"] for group in ("end_to_end", "per_layer")
                 for m in self.spec[group]]
        names += [w["name"] for w in self.spec["workloads"]]
        for name in names:
            self.assertRegex(name, r"^[A-Za-z0-9_.-]{1,64}$")
        self.assertEqual(len(names), len(set(names)))
        self.assertEqual(set(LAYER_SPANS),
                         {w["name"] for w in self.spec["workloads"]})

    def test_every_workload_reports_every_metric(self):
        seed = 7
        for workload in LAYER_SPANS:
            with self.subTest(workload=workload):
                raw = run.run_workload(self.out / "tdmabench", workload, seed,
                                       0.01, 1, self.out / "spans")
                for trace in (0, 1):
                    line = run.result_line(raw, self.spec, trace)
                    self.assertEqual(
                        set(line), {"correct", "attempted", "failed",
                                    "metrics"})
                    self.assertTrue(line["correct"])
                    self.assertEqual(line["failed"], 0)
                    self.assertGreater(line["attempted"], 0)
                    if trace == 0:
                        for name, metric in line["metrics"].items():
                            self.assertGreater(metric["value"], 0, name)
                spans_file = self.out / "spans" / f"{workload}-seed{seed}.json"
                with open(spans_file) as f:
                    trace = json.load(f)
                spans = trace["spans"]
                ids = {s["id"] for s in spans}
                for s in spans:
                    self.assertLessEqual(s["start_ns"], s["end_ns"])
                    self.assertTrue(s["parent"] == 0 or s["parent"] in ids)
                self.assertLessEqual(LAYER_SPANS[workload],
                                     {s["name"] for s in spans})
                self.assertEqual(trace["context"]["workload"], workload)


if __name__ == "__main__":
    unittest.main()
