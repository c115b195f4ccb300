"""Tests of run.py's checks on BENCHMARK.json and on a run's result.

Run from the root of the repository:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import unittest

import run

HERE = os.path.dirname(os.path.abspath(__file__))


def metric(name, unit="ms", better="lower", **extra):
    return dict(name=name, unit=unit, better=better, **extra)


class ValidateSpec(unittest.TestCase):

    def spec(self, e2e=None, per_layer=None):
        return {"workloads": [{"name": "w1", "why": "x"}],
                "end_to_end": e2e if e2e is not None else [metric("setup_s", "s", bound=0.25)],
                "per_layer": per_layer if per_layer is not None else [metric("a.b", "count")]}

    def test_accepts_a_valid_spec(self):
        got = run.validate_spec(self.spec())
        self.assertEqual(got, {"end_to_end": {"setup_s": "s"}, "per_layer": {"a.b": "count"}})

    def test_rejects_bad_names_and_units(self):
        for bad in ["", "_x", "a b", "x" * 65]:
            with self.assertRaises(run.BenchError, msg=bad):
                run.validate_spec(self.spec(per_layer=[metric(bad)]))
        with self.assertRaises(run.BenchError):
            run.validate_spec(self.spec(per_layer=[metric("a", "m s")]))

    def test_rejects_duplicates_and_missing_setup(self):
        with self.assertRaises(run.BenchError):
            run.validate_spec(self.spec(per_layer=[metric("setup_s", "s")]))
        with self.assertRaises(run.BenchError):
            run.validate_spec(self.spec(e2e=[metric("x", "s")]))

    def test_the_repository_spec_is_valid(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            spec = json.load(f)
        got = run.validate_spec(spec)
        self.assertIn("setup_s", got["end_to_end"])
        self.assertEqual(set(spec), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})


class ParseArgs(unittest.TestCase):

    ARGS = ["--workload", "w1", "--seed", "1", "--seconds", "1", "--trace", "0"]
    ENV = ["--heap", "1g", "--gc", "ParallelGC", "--master", "local[1]",
           "--shuffle-partitions", "1"]

    def test_the_run_environment_has_no_defaults(self):
        self.assertEqual(run.parse_args(self.ARGS + self.ENV).heap, "1g")
        for i in range(0, len(self.ENV), 2):
            with self.assertRaises(SystemExit):
                run.parse_args(self.ARGS + self.ENV[:i] + self.ENV[i + 2:])


class SelectResult(unittest.TestCase):

    raw = {"correct": True, "attempted": 5, "failed": 0,
           "metrics": {"a": {"value": 1.5, "unit": "ms"},
                       "b": {"value": 0.0, "unit": "count"},
                       "extra": {"value": 9.0, "unit": "s"}}}

    def test_keeps_only_the_expected_metrics(self):
        got = run.select_result(self.raw, {"a": "ms"}, end_to_end=True)
        self.assertEqual(got, {"correct": True, "attempted": 5, "failed": 0,
                               "metrics": {"a": {"value": 1.5, "unit": "ms"}}})

    def test_a_missing_or_mis_unitted_metric_is_an_error(self):
        with self.assertRaises(run.BenchError):
            run.select_result(self.raw, {"zz": "ms"}, end_to_end=True)
        with self.assertRaises(run.BenchError):
            run.select_result(self.raw, {"a": "s"}, end_to_end=True)

    def test_zero_is_refused_end_to_end_only(self):
        with self.assertRaises(run.BenchError):
            run.select_result(self.raw, {"b": "count"}, end_to_end=True)
        got = run.select_result(self.raw, {"b": "count"}, end_to_end=False)
        self.assertEqual(got["metrics"]["b"]["value"], 0.0)

    def test_a_failed_operation_makes_the_result_incorrect(self):
        raw = dict(self.raw, failed=1)
        self.assertFalse(run.select_result(raw, {"a": "ms"}, end_to_end=True)["correct"])


if __name__ == "__main__":
    unittest.main()
