#!/usr/bin/env python3
"""Tests of the benchmark's own statistics: percentile selection, failure
counting against attempts, spread, span self times and the op-time
decomposition. Run: python3 perfbench/test_stats.py"""

import statistics
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True  # keep the benchmark directory free of caches
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import stats  # noqa: E402


class Percentiles(unittest.TestCase):
    def test_interpolates_between_closest_ranks(self):
        values = [10, 1, 9, 2, 8, 3, 7, 4, 6, 5]
        self.assertAlmostEqual(stats.percentile(values, 90), 9.1)
        self.assertAlmostEqual(stats.percentile(values, 50), 5.5)
        self.assertEqual(stats.percentile(values, 100), 10)
        self.assertEqual(stats.percentile(values, 0), 1)

    def test_matches_statistics_quantiles_inclusive(self):
        values = [3.5, 9.0, 1.25, 7.0, 2.0, 11.0, 4.0]
        deciles = statistics.quantiles(values, n=10, method="inclusive")
        for q, expected in zip(range(10, 100, 10), deciles):
            self.assertAlmostEqual(stats.percentile(values, q), expected)

    def test_small_samples(self):
        self.assertEqual(stats.percentile([4.0], 90), 4.0)
        self.assertAlmostEqual(stats.percentile([3.0, 1.0, 2.0], 90), 2.8)
        # One slow op among five moves p90 by 60% of its excess, not 100%.
        self.assertAlmostEqual(stats.percentile([10, 10, 10, 10, 20], 90), 16.0)

    def test_median_averages_the_middle_pair(self):
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)
        self.assertEqual(stats.median([5, 1, 3]), 3)

    def test_rejects_empty_samples_and_bad_ranks(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.percentile([1], -1)
        with self.assertRaises(ValueError):
            stats.percentile([1], 101)
        with self.assertRaises(ValueError):
            stats.median([])

    def test_samples_beyond(self):
        self.assertEqual(stats.samples_beyond(list(range(1, 101)), 90), 10)
        self.assertEqual(stats.samples_beyond([1, 2, 3, 4, 5, 6, 7], 90), 1)


class FailureCounting(unittest.TestCase):
    def test_counts_failures_against_attempts(self):
        self.assertEqual(stats.failure_counts([1, 0, 1, 1]), (4, 1))
        self.assertEqual(stats.failure_counts([True] * 5), (5, 0))
        self.assertEqual(stats.ok_ratio(4, 1), 0.75)
        self.assertEqual(stats.ok_ratio(5, 0), 1.0)
        self.assertEqual(stats.ok_ratio(2, 2), 0.0)

    def test_rejects_impossible_counts(self):
        with self.assertRaises(ValueError):
            stats.ok_ratio(0, 0)
        with self.assertRaises(ValueError):
            stats.ok_ratio(3, 4)
        with self.assertRaises(ValueError):
            stats.ok_ratio(3, -1)

    def test_failed_ops_do_not_count_as_completed(self):
        raw = {"op_ms": [10.0, 20.0, 30.0, 40.0], "op_ok": [1, 1, 0, 1],
               "setup_s": [3.0, 1.0, 2.0], "wall_s": 2.0, "rows": 100,
               "disk_bytes": 500, "disk_rows": 50, "peak_rss_mb": 64.0}
        m = run.end_to_end(raw)
        self.assertEqual(m["ops_per_s"], 1.5)
        self.assertEqual(m["ok_op_ratio"], 0.75)
        self.assertEqual(m["setup_s"], 2.0)
        self.assertEqual(m["op_p50_ms"], 25.0)
        self.assertAlmostEqual(m["op_p90_ms"], 37.0)
        self.assertEqual(m["rows_per_s"], 50.0)
        self.assertEqual(m["disk_bytes_per_row"], 10.0)


class Spread(unittest.TestCase):
    def test_interquartile_distance_over_median(self):
        values = [8, 9, 10, 11, 12]
        q1, q2, q3 = 8.5, 10, 11.5  # statistics.quantiles, exclusive method
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / q2)
        self.assertEqual(stats.spread([5.0] * 10), 0.0)


class SelfTimes(unittest.TestCase):
    @staticmethod
    def span(id_, parent, start, end):
        return {"id": id_, "parent": parent, "start": start, "end": end}

    def test_children_are_subtracted_once(self):
        spans = [self.span(1, 0, 0, 10), self.span(2, 1, 1, 3),
                 self.span(3, 1, 5, 6), self.span(4, 2, 1.5, 2.5)]
        own = stats.self_times(spans)
        self.assertEqual(own[1], 7)
        self.assertEqual(own[2], 1)
        self.assertEqual(own[3], 1)
        self.assertEqual(own[4], 1)
        self.assertEqual(sum(own.values()), 10)

    def test_overlapping_and_overhanging_children(self):
        spans = [self.span(1, 0, 0, 10), self.span(2, 1, 2, 6),
                 self.span(3, 1, 4, 8), self.span(4, 1, 9, 12)]
        self.assertEqual(stats.self_times(spans)[1], 10 - 6 - 1)


class Decomposition(unittest.TestCase):
    def raw(self):
        spans = []
        for op in (2, 4):
            base = op * 100.0
            spans += [
                {"name": "op.ingest", "id": op * 10, "parent": 0, "op": op,
                 "start": base, "end": base + 50},
                {"name": "io.load_profile", "id": op * 10 + 1,
                 "parent": op * 10, "op": op, "start": base + 1,
                 "end": base + 6},
                {"name": "api.save_trial", "id": op * 10 + 2,
                 "parent": op * 10, "op": op, "start": base + 6,
                 "end": base + 48},
            ]
        # (count, sum in us) over the whole run and over the traced ops;
        # the untraced ops ran slower statements, which times must skip.
        run_micros = {"sqldb.statement.total_micros": (60, 100000.0),
                      "sqldb.wal.fsync_micros": (12, 7000.0)}
        traced_micros = {"sqldb.statement.total_micros": (30, 60000.0),
                         "sqldb.wal.fsync_micros": (6, 4000.0)}

        def deltas(micros):
            return {name: {"value": 0, "count": c, "sum": s}
                    for name, (c, s) in micros.items()}

        return {"workload": "ingest", "clients": 1, "kinds": ["ingest"],
                "op_ms": [40.0, 50.0, 40.0, 50.0], "op_ok": [1, 1, 1, 1],
                "op_traced": [0, 1, 0, 1], "op_kind": [0, 0, 0, 0],
                "rows": 40, "points_parsed": 40, "reopen_s": [1.0], "close_s": 0.5,
                "explain": {"examined": 10, "qualifying": 5},
                "result_insert_us": 0.0, "result_inserts": 0,
                "counters": deltas(run_micros),
                "traced_counters": deltas(traced_micros),
                "spans": spans}

    def test_layers_and_remainder_add_up_to_the_op_time(self):
        m, layers = run.per_layer(self.raw())
        self.assertEqual(m["op.mean_ms"], 50.0)
        self.assertEqual(m["io.parse_ms"], 5.0)
        self.assertEqual(m["sqldb.statement_ms"], 30.0)
        self.assertEqual(m["sqldb.fsync_ms"], 2.0)
        self.assertEqual(m["api.self_ms"], 42.0 - 30.0 - 2.0)
        # Counts per row and per op cover the whole run.
        self.assertEqual(m["sqldb.statements_per_row"], 60 / 40)
        self.assertEqual(m["sqldb.fsyncs_per_op"], 12 / 4)
        self.assertAlmostEqual(sum(layers.values()) + m["op.remainder_ms"],
                               m["op.mean_ms"])
        self.assertEqual(m["sqldb.rows_examined_per_row_returned"], 2.0)
        self.assertEqual(m["trace.overhead_ops_per_s"], 25.0 - 20.0)


if __name__ == "__main__":
    unittest.main()
