"""Tests of the benchmark's own computations and of its definition.

    python3 perfbench/test_report.py
"""

import json
import os
import unittest

import report
from report import Delta, Histogram, Ratio, Registry, Timing

HERE = os.path.dirname(os.path.abspath(__file__))


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(report.percentile(values, 0.5), 50)
        self.assertEqual(report.percentile(values, 0.99), 99)
        self.assertEqual(report.percentile(values, 1.0), 100)
        self.assertIsNone(report.percentile([], 0.5))

    def test_ten_beyond(self):
        # p99 needs 1000 samples: rank 990, ten above it.
        self.assertEqual(report.beyond(1000, 0.99), 10)
        self.assertTrue(report.supported(1000, 0.99))
        self.assertFalse(report.supported(999, 0.99))
        self.assertTrue(report.supported(20, 0.5))
        self.assertFalse(report.supported(19, 0.5))
        self.assertFalse(report.supported(0, 0.5))

    def test_timing_hides_unsupported(self):
        t = Timing([float(v) for v in range(999, 0, -1)])
        self.assertEqual(t.n, 999)
        self.assertEqual(t.at(0.5), 500.0)
        self.assertIsNone(t.at(0.99))
        self.assertEqual(Timing(range(1000)).at(0.99), 989)


class Ratios(unittest.TestCase):
    def test_value_and_base(self):
        r = Ratio(3, 4)
        self.assertEqual(r.value, 0.75)
        self.assertEqual(r.base(), "3 / 4")
        self.assertEqual(Ratio(5, 0).value, 0.0)
        self.assertEqual(Ratio(1.5, 2).base(), "1.5 / 2")


class RegistryDeltas(unittest.TestCase):
    START = [
        {"name": "wal.syncs", "type": "counter", "labels": {}, "value": 10},
        {"name": "wal.syncs", "type": "counter", "labels": {}, "value": 5},
        {"name": "commit.latency_us", "type": "histogram", "labels": {},
         "total": 2, "sum_us": 6, "buckets": [[4, 2]]},
        {"name": "rid_map.entries", "type": "gauge", "labels": {}, "value": 7},
    ]
    END = [
        {"name": "wal.syncs", "type": "counter", "labels": {}, "value": 30},
        {"name": "wal.syncs", "type": "counter", "labels": {}, "value": 5},
        {"name": "commit.latency_us", "type": "histogram", "labels": {},
         "total": 12, "sum_us": 56, "buckets": [[4, 2], [8, 10]]},
        {"name": "rid_map.entries", "type": "gauge", "labels": {}, "value": 9},
    ]

    def test_sums_label_sets_and_subtracts(self):
        d = Delta(Registry(self.START), Registry(self.END))
        self.assertEqual(d.count("wal.syncs"), 20)
        self.assertEqual(d.gauge("rid_map.entries"), 9)
        self.assertEqual(d.count("missing"), 0)
        h = d.hist("commit.latency_us")
        self.assertEqual(h.total, 10)
        self.assertEqual(h.sum_us, 50)
        self.assertEqual(h.buckets[4], 0)

    def test_histogram_interpolates_inside_bucket(self):
        h = Histogram({2: 0, 4: 100, 8: 100})
        self.assertEqual(h.at(0.5), 4.0)      # rank 100: top of [2, 4)
        self.assertEqual(h.at(0.75), 6.0)     # rank 150: middle of [4, 8)
        self.assertEqual(Histogram({2: 20}).at(0.5), 1.0)  # first is [0, 2)
        self.assertIsNone(Histogram({4: 999}).at(0.99))
        self.assertIsNone(Histogram().at(0.5))


class Definition(unittest.TestCase):
    """definition.json adds to BENCHMARK.json, keyed by its names."""

    def setUp(self):
        self.d = json.load(open(os.path.join(HERE, "definition.json")))
        self.b = json.load(open(os.path.join(HERE, "..", "BENCHMARK.json")))
        self.metrics = {m["name"] for m in
                        self.b["end_to_end"] + self.b["per_layer"]}

    def test_every_workload_has_parameters(self):
        for w in self.b["workloads"]:
            self.assertIn("params", self.d["workloads"][w["name"]])

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in self.b["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertLessEqual(max(bounds.values()), 0.25)

    def test_mapping_names_real_metrics(self):
        workloads = {w["name"] for w in self.b["workloads"]}
        self.assertLessEqual(set(self.d["metrics"]), self.metrics)
        for name, m in self.d["metrics"].items():
            self.assertLessEqual(set(m.get("moves", [])), self.metrics, name)
            self.assertLessEqual(set(m.get("on", [])), workloads | {"all"},
                                 name)


if __name__ == "__main__":
    unittest.main()
