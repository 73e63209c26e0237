"""Tests of the Python helpers of the benchmark: the spread and drift
rules of steadiness.py and the result-shape check of run.py.

    python3 -m unittest discover -s perfbench/tests -p 'test_*.py'
"""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import run  # noqa: E402
import steadiness  # noqa: E402

SPECS = [{"name": "latency_ms", "unit": "ms"}, {"name": "setup_s", "unit": "s"}]


def result(**metrics):
    return {"correct": True, "attempted": 10, "failed": 0,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


class SteadinessTest(unittest.TestCase):
    def test_quartiles_match_statistics_quantiles(self):
        values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0]
        self.assertEqual(steadiness.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))
        self.assertEqual(steadiness.quartiles([7.0]), (7.0, 7.0, 7.0))

    def test_spread_is_iqr_over_median(self):
        # quantiles(1..10) = 2.75, 5.5, 8.25
        self.assertAlmostEqual(steadiness.spread(list(range(1, 11))), 1.0)
        self.assertEqual(steadiness.spread([2.0] * 10), 0.0)

    def test_drift_follows_the_better_direction(self):
        first = [100.0] * 5
        self.assertAlmostEqual(steadiness.drift(first, [110.0] * 5, "lower"),
                               0.10)
        self.assertAlmostEqual(steadiness.drift(first, [110.0] * 5, "higher"),
                               -0.10)
        self.assertAlmostEqual(steadiness.drift(first, [80.0] * 5, "higher"),
                               0.20)

    def test_verdict(self):
        ops = {"name": "ops_per_s", "bound": 0.12}
        self.assertEqual(steadiness.verdict(ops, 0.03, [0.1]), [])
        self.assertEqual(len(steadiness.verdict(ops, 0.05, [0.0])), 1)
        self.assertEqual(len(steadiness.verdict(ops, 0.01, [0.13])), 1)
        # setup_s is held to both rules like every other metric.
        setup = {"name": "setup_s", "bound": 0.25}
        self.assertEqual(steadiness.verdict(setup, 0.05, [0.2]), [])
        self.assertEqual(len(steadiness.verdict(setup, 0.5, [0.2])), 1)
        self.assertEqual(len(steadiness.verdict(setup, 0.0, [0.3])), 1)


class CheckResultTest(unittest.TestCase):
    def test_accepts_the_contract_shape(self):
        good = result(latency_ms=(1.25, "ms"), setup_s=(0.5, "s"))
        self.assertEqual(run.check_result(good, SPECS), "")

    def test_rejects_a_missing_or_extra_metric(self):
        self.assertNotEqual(
            run.check_result(result(latency_ms=(1.0, "ms")), SPECS), "")
        extra = result(latency_ms=(1.0, "ms"), setup_s=(1.0, "s"),
                       more=(1.0, "s"))
        self.assertNotEqual(run.check_result(extra, SPECS), "")

    def test_rejects_a_wrong_unit_or_value(self):
        self.assertNotEqual(run.check_result(
            result(latency_ms=(1.0, "s"), setup_s=(1.0, "s")), SPECS), "")
        self.assertNotEqual(run.check_result(
            result(latency_ms=(float("nan"), "ms"), setup_s=(1.0, "s")),
            SPECS), "")
        self.assertNotEqual(run.check_result(
            result(latency_ms=(True, "ms"), setup_s=(1.0, "s")), SPECS), "")

    def test_rejects_bad_counts_and_keys(self):
        bad = result(latency_ms=(1.0, "ms"), setup_s=(1.0, "s"))
        bad["attempted"] = 0
        self.assertNotEqual(run.check_result(bad, SPECS), "")
        bad = result(latency_ms=(1.0, "ms"), setup_s=(1.0, "s"))
        bad["failed"] = 1.5
        self.assertNotEqual(run.check_result(bad, SPECS), "")
        bad = result(latency_ms=(1.0, "ms"), setup_s=(1.0, "s"))
        bad["note"] = "x"
        self.assertNotEqual(run.check_result(bad, SPECS), "")


if __name__ == "__main__":
    unittest.main()
