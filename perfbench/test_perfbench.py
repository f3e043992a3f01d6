"""Self-tests of the benchmark.

    python3 -m pytest perfbench/test_perfbench.py     (about 10 s)
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from instrument import LapClock, fastest_laps  # noqa: E402
from tracer import Tracer, layer_table  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


class TestSelfTime(unittest.TestCase):
    def test_self_time_subtracts_direct_children_only(self):
        # job [0, 10] holds fwd [1, 4], which holds check [2, 3]; then an
        # unrecorded op [5, 6] and a second fwd [7, 8]
        tracer = Tracer(clock=FakeClock([0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 10]))
        tracer.enter("bench.job")
        tracer.enter("networks.fwd")
        tracer.enter("autograd.check", record=False)
        tracer.exit()
        tracer.exit()
        tracer.enter("autograd.op", record=False)
        tracer.exit()
        tracer.enter("networks.fwd")
        tracer.exit()
        tracer.exit()

        self.assertEqual(tracer.totals["bench.job"], [1, 10, 10 - 3 - 1 - 1])
        self.assertEqual(tracer.totals["networks.fwd"], [2, 4, 4 - 1])
        self.assertEqual(tracer.totals["autograd.check"], [1, 1, 1])
        self.assertEqual(tracer.totals["autograd.op"], [1, 1, 1])
        self.assertEqual(layer_table(tracer.totals),
                         {"bench": 5, "networks": 3, "autograd": 2})
        self.assertEqual(sum(layer_table(tracer.totals).values()), 10)

    def test_spans_record_parent_through_unrecorded_regions(self):
        tracer = Tracer(clock=FakeClock([0, 0, 1, 2, 3, 4, 5]))
        tracer.run_id = "job0"
        tracer.enter("a")
        tracer.enter("op", record=False)
        tracer.enter("b")
        tracer.exit()
        tracer.exit()
        tracer.exit()
        self.assertEqual(tracer.spans, [["a", 0, 5, -1, "job0"], ["b", 2, 3, 0, "job0"]])

    def test_region_closes_on_exception(self):
        tracer = Tracer(clock=FakeClock([0, 0, 1, 2, 3]))

        def boom():
            raise ValueError("x")

        inner = tracer.region("inner", boom)
        tracer.enter("outer")
        with self.assertRaises(ValueError):
            inner()
        tracer.exit()
        self.assertEqual(tracer.totals["outer"], [1, 3, 2])
        self.assertEqual(tracer.totals["inner"], [1, 1, 1])


class TestLaps(unittest.TestCase):
    def test_laps_split_at_step_and_latent_returns_and_sum_to_the_call(self):
        class Adam:
            def step(self):
                pass

        class VAE:
            def latent_means(self, x):
                return x

        clock = LapClock()
        clock.install(Adam, VAE)
        Adam().step()  # outside a timed call nothing is recorded

        def stage():
            Adam().step()
            VAE().latent_means(1)
            Adam().step()
            return "out"

        begin = time.perf_counter()
        out, laps = clock.time(stage)
        wall = time.perf_counter() - begin
        self.assertEqual(out, "out")
        self.assertEqual(len(laps), 4)
        self.assertTrue(all(lap >= 0 for lap in laps))
        self.assertLessEqual(sum(laps), wall)
        self.assertIsNone(clock.marks)

    def test_fastest_laps_is_lap_wise(self):
        self.assertEqual(fastest_laps([[3.0, 1.0, 2.0], [1.0, 4.0, 2.5]]), [1.0, 1.0, 2.0])


class TestSmoke(unittest.TestCase):
    """A tiny config through run.py prints every named metric with its unit."""

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            cls.spec = json.load(fh)

    def run_bench(self, trace: int) -> tuple[dict, list[str]]:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", "tiny", "--seed", "1",
             "--seconds", "1", "--trace", str(trace)],
            capture_output=True, text=True, timeout=170)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        return result, lines

    def assert_metrics(self, trace: int, declared: list[dict]) -> None:
        result, lines = self.run_bench(trace)
        printed = result["metrics"]
        self.assertEqual(set(printed), {m["name"] for m in declared})
        words = [line.split() for line in lines[:-1]]
        for metric in declared:
            name, unit = metric["name"], metric["unit"]
            self.assertEqual(printed[name]["unit"], unit, name)
            self.assertIsInstance(printed[name]["value"], (int, float))
            self.assertTrue(any(w[:1] == [name] and w[2:3] == [unit] for w in words), name)
        self.assertTrue(any(w[:1] == ["failed_frac"] for w in words))

    def test_untraced_run_prints_end_to_end_metrics(self):
        self.assert_metrics(0, self.spec["end_to_end"])

    def test_traced_run_prints_per_layer_metrics(self):
        self.assert_metrics(1, self.spec["per_layer"])


if __name__ == "__main__":
    unittest.main()
