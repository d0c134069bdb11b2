"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The statistics, self-time and trace tests are pure.  The program tests
build the program (as run.py does) and run each workload at its benchmark
size with a short --seconds: twice on one seed, where every exact count
must repeat, and once traced.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import run  # noqa: E402


def span(lane, index, name, start, end, parent=None, tag=-1):
    return {"id": (lane, index), "name": name, "start": start, "end": end,
            "parent": parent, "lane": lane, "tag": tag}


class TailRuleTest(unittest.TestCase):
    def test_exactly_ten_samples_beyond(self):
        for n in (11, 12, 20, 37, 100, 1000):
            values = [float(i) for i in range(n)]
            value, pct, count = metrics.tail(list(reversed(values)))
            self.assertEqual(count, n)
            self.assertEqual(sum(1 for v in values if v > value), 10)
            self.assertAlmostEqual(pct, 100.0 * (n - 10) / n)

    def test_hundred_samples_is_p90(self):
        value, pct, _ = metrics.tail([float(i) for i in range(1, 101)])
        self.assertEqual(value, 90.0)
        self.assertEqual(pct, 90.0)

    def test_too_few_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            metrics.tail([1.0] * 10)


class SelfTimeTest(unittest.TestCase):
    def test_nested(self):
        spans = [span(0, 0, "root", 0.0, 10.0),
                 span(0, 1, "a", 1.0, 4.0, (0, 0)),
                 span(0, 2, "a.1", 2.0, 3.0, (0, 1)),
                 span(0, 3, "b", 5.0, 9.0, (0, 0))]
        selfs = metrics.self_times(spans)
        self.assertAlmostEqual(selfs[(0, 0)], 3.0)
        self.assertAlmostEqual(selfs[(0, 1)], 2.0)
        self.assertAlmostEqual(selfs[(0, 2)], 1.0)
        self.assertAlmostEqual(selfs[(0, 3)], 4.0)
        by_name, wall = metrics.self_time_by_name(spans)
        self.assertAlmostEqual(wall, 10.0)
        self.assertAlmostEqual(sum(by_name.values()), wall)

    def test_overlapping_children_count_once(self):
        # Two ranks' spans under one main-thread span overlap in time; the
        # parent's self time subtracts their union, not their sum.
        spans = [span(0, 0, "world", 0.0, 10.0),
                 span(1, 0, "rank0", 1.0, 6.0, (0, 0)),
                 span(2, 0, "rank1", 4.0, 8.0, (0, 0))]
        selfs = metrics.self_times(spans)
        self.assertAlmostEqual(selfs[(0, 0)], 3.0)
        self.assertAlmostEqual(selfs[(1, 0)], 5.0)
        self.assertAlmostEqual(selfs[(2, 0)], 4.0)

    def test_child_outside_parent_is_clipped(self):
        spans = [span(0, 0, "p", 0.0, 2.0),
                 span(1, 0, "c", 1.5, 3.0, (0, 0))]
        self.assertAlmostEqual(metrics.self_times(spans)[(0, 0)], 1.5)

    def test_critical_lane_partitions_wall(self):
        spans = [span(0, 0, "bench.run", 0.0, 10.0),
                 span(1, 0, "core.x", 1.0, 6.0, (0, 0)),
                 span(2, 0, "core.x", 0.5, 9.0, (0, 0))]
        by_name, wall = metrics.self_time_by_name(
            metrics.critical_lane_spans(spans))
        self.assertAlmostEqual(by_name["core.x"], 5.0)
        self.assertAlmostEqual(sum(by_name.values()), wall)


class ChromeTraceTest(unittest.TestCase):
    def test_round_trips_through_json(self):
        lanes = [[["bench.run", 0.0, 1.0, 0, -1, -1]],
                 [["core.delta_stepping", 0.1, 0.4, 0, 0, 7]],
                 [["core.delta_stepping", 0.1, 0.5, 0, 0, 7]]]
        doc = metrics.chrome_trace(metrics.flatten_spans(lanes), "w", 3)
        parsed = json.loads(json.dumps(doc))
        complete = [e for e in parsed["traceEvents"] if e["ph"] == "X"]
        self.assertEqual(len(complete), 3)
        for e in complete:
            for key in ("name", "ts", "dur", "pid", "tid", "args"):
                self.assertIn(key, e)
            self.assertGreaterEqual(e["dur"], 0)
        names = {e["args"]["name"] for e in parsed["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        self.assertEqual(names, {"main", "rank 0", "rank 1"})


class BenchmarkJsonTest(unittest.TestCase):
    def test_lists_the_reported_metrics(self):
        with open(HERE.parent / "BENCHMARK.json") as f:
            bench = json.load(f)
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]],
            metrics.END_TO_END)
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
            metrics.PER_LAYER)
        self.assertEqual({w["name"] for w in bench["workloads"]},
                         set(run.WORKLOADS))


# Short runs that still give every metric its samples: three protocol
# passes of 8 roots, and a serve trace of 30 queries with all its update
# batches (a tail needs 11 samples; 18 queries can answer in only 10
# ticks).
SECONDS = {"kron-g500": "1", "grid-road": "1", "serve-mutate": "5"}


@unittest.skipIf(shutil.which("cmake") is None, "cmake is not installed")
class ProgramTest(unittest.TestCase):
    """Builds and runs the program; a build failure fails the tests."""

    @classmethod
    def setUpClass(cls):
        cls.binary = run.build(HERE.parent, run.build_dir(HERE.parent))

    def run_program(self, workload, seed, trace):
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "raw.json")
            cmd = [str(self.binary), "--workload", workload, "--seed",
                   str(seed), "--trace", str(trace),
                   "--seconds", SECONDS[workload], "--out", out]
            status = subprocess.run(cmd, timeout=300).returncode
            self.assertEqual(status, 0, workload)
            with open(out) as f:
                return json.load(f)

    def test_same_seed_repeats_every_exact_count(self):
        for workload in SECONDS:
            with self.subTest(workload=workload):
                a = metrics.exact_counts(self.run_program(workload, 5, 0))
                b = metrics.exact_counts(self.run_program(workload, 5, 0))
                self.assertEqual(a, b)
                self.assertEqual(a["failed"], 0)

    def test_traced_run_reduces_and_spans_cover_wall(self):
        host = {"steal_frac": 0.0, "load1_delta": 0.0}
        for workload in SECONDS:
            with self.subTest(workload=workload):
                doc = self.run_program(workload, 6, 1)
                _, layers, _ = metrics.reduce(doc, host)
                self.assertEqual(set(layers),
                                 {name for name, _, _ in metrics.PER_LAYER})
                spans = metrics.critical_lane_spans(
                    metrics.flatten_spans(doc["spans"]))
                by_name, wall = metrics.self_time_by_name(spans)
                self.assertAlmostEqual(sum(by_name.values()), wall, places=6)
                trace = metrics.chrome_trace(
                    metrics.flatten_spans(doc["spans"]), workload, 6)
                json.loads(json.dumps(trace))


if __name__ == "__main__":
    unittest.main()
