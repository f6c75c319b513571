"""Self-tests of the benchmark (not part of the repository's test suite).

Run from the root of a checkout::

    python3 perfbench/selftest.py            # unittest
    python3 -m pytest -q perfbench/selftest.py

Each workload runs at a tiny size with tracing on, so one run covers the
end-to-end metrics, the per-layer metrics and the instrumentation.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from tracing import Span, originals, self_times  # noqa: E402
from run import tail  # noqa: E402
from workloads import TINY, WORKLOADS  # noqa: E402


class TinyWorkloads(unittest.TestCase):
    """Every workload at a tiny size: all metrics, no failed check."""

    results: dict = {}

    @classmethod
    def setUpClass(cls):
        before = originals()
        for name in WORKLOADS:
            cls.results[name] = run.run_workload(
                name, seed=7, seconds=0.5, trace=True, sizes=TINY,
            )
        cls.restored = all(
            after is before[key] for key, after in originals().items()
        )

    def test_end_to_end_metrics_complete_and_checked(self):
        for name, result in self.results.items():
            with self.subTest(workload=name):
                self.assertEqual(set(result["metrics"]), set(run.END_TO_END))
                self.assertEqual(result["failed"], 0, result["errors"])
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(result["metrics"]["recall"], 1.0)
                for metric in ("setup_s", "peak_rss_mb", "throughput_per_s",
                               "p50_ms", "tail_ms"):
                    self.assertGreater(result["metrics"][metric], 0, metric)

    def test_per_layer_metrics_complete(self):
        for name, result in self.results.items():
            with self.subTest(workload=name):
                self.assertEqual(set(result["layers"]), set(PER_LAYER))
                for metric, value in result["layers"].items():
                    if metric.endswith(".s"):
                        self.assertGreaterEqual(value, 0.0, metric)
        # each workload exercises the layers it is meant to load
        self.assertGreater(self.results["fleet-cold"]["layers"]["cfg.build.s"], 0)
        self.assertGreater(self.results["fleet-cold"]["layers"]["fleet.sweep.s"], 0)
        self.assertGreater(self.results["service-mix"]["layers"]["svc.route.s"], 0)
        self.assertGreater(
            self.results["service-mix"]["layers"]["filters.derive.s"], 0)
        self.assertGreater(self.results["update"]["layers"]["inc.scan.s"], 0)
        self.assertGreater(self.results["update"]["layers"]["store.get.s"], 0)

    def test_self_time_never_exceeds_duration(self):
        for name, result in self.results.items():
            with open(os.path.join(ROOT, result["trace_file"])) as f:
                spans = [Span(**doc) for doc in json.load(f)["spans"]]
            self.assertTrue(spans, name)
            for span_id, own in self_times(spans).items():
                span = next(s for s in spans if s.id == span_id)
                self.assertLessEqual(own, span.duration + 1e-9, span.name)
                self.assertGreaterEqual(own, 0.0, span.name)

    def test_wrapped_functions_restored(self):
        self.assertTrue(self.restored)


class Helpers(unittest.TestCase):
    def test_tail_has_ten_samples_beyond(self):
        values = list(range(100))
        value, percentile, n, beyond = tail(values)
        self.assertEqual((value, percentile, n, beyond), (89, 90.0, 100, 10))
        self.assertEqual(sum(v > value for v in values), 10)

    def test_benchmark_json_matches_code(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["per_layer"]}, PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(WORKLOADS))

    def test_refuses_to_run_without_sources(self):
        os.makedirs(run.WORK_ROOT, exist_ok=True)
        bare = tempfile.mkdtemp(dir=run.WORK_ROOT)
        try:
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "update",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
