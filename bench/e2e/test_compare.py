#!/usr/bin/env python3
"""Tests for compare.py. Run: python3 -B -m unittest bench/e2e/test_compare.py

-B keeps the test module's own bytecode out of the source tree.
"""

import contextlib
import io
import json
import os
import statistics
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402

BENCH = {
    "lat_p50_us": {"name": "lat_p50_us", "unit": "us", "better": "lower",
                   "bound": 0.1},
    "qps_sat": {"name": "qps_sat", "unit": "1/s", "better": "higher",
                "bound": 0.1},
}


def runs(workload, metric, values):
    return {workload: [{metric: v} for v in values]}


class SummarizeTest(unittest.TestCase):
    def test_quartiles_match_statistics(self):
        values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0, 3.5, 8.0, 7.9]
        s = compare.summarize(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(s["median"], statistics.median(values))
        self.assertEqual((s["q1"], s["q3"]), (q1, q3))
        self.assertAlmostEqual(s["spread"], (q3 - q1) / s["median"])

    def test_single_run_has_no_spread(self):
        self.assertEqual(compare.summarize([5.0])["spread"], 0.0)

    def test_zero_median(self):
        self.assertEqual(compare.summarize([0.0, 0.0, 0.0])["spread"], 0.0)


class SameCodeTest(unittest.TestCase):
    def test_agree_within_bound(self):
        rows = compare.same_code(runs("explore", "lat_p50_us", [100, 101, 99]),
                                 runs("explore", "lat_p50_us", [105, 104, 106]),
                                 BENCH)
        self.assertEqual(len(rows), 1)
        self.assertTrue(rows[0]["ok"])

    def test_disagree_beyond_bound_in_either_direction(self):
        for new in ([120, 121, 119], [80, 81, 79]):
            rows = compare.same_code(runs("explore", "lat_p50_us", [100] * 3),
                                     runs("explore", "lat_p50_us", new), BENCH)
            self.assertFalse(rows[0]["ok"], new)

    def test_disagree_when_a_set_spreads_beyond_bound(self):
        wide = [80, 90, 100, 110, 120]
        rows = compare.same_code(runs("explore", "lat_p50_us", [100] * 5),
                                 runs("explore", "lat_p50_us", wide), BENCH)
        self.assertFalse(rows[0]["ok"])
        # Set-up time only has to keep its median.
        bench = {"setup_s": {"name": "setup_s", "unit": "s",
                             "better": "lower", "bound": 0.1}}
        rows = compare.same_code(runs("explore", "setup_s", [100] * 5),
                                 runs("explore", "setup_s", wide), bench)
        self.assertTrue(rows[0]["ok"])


class PairsTest(unittest.TestCase):
    def verdict(self, metric, base, new):
        rows = compare.pairs(runs("explore", metric, base),
                             runs("explore", metric, new), BENCH)
        self.assertEqual(len(rows), 1)
        return rows[0]["verdict"]

    def test_gain_needs_nine_of_ten_wins_and_a_gap_beyond_the_iqr(self):
        base = [100, 101, 102, 99, 100, 101, 98, 100, 102, 99]
        self.assertEqual(self.verdict("lat_p50_us", base,
                                      [v - 10 for v in base]), "gain")
        # Eight wins of ten is not enough.
        new = [v - 10 for v in base[:8]] + [v + 1 for v in base[8:]]
        self.assertNotEqual(self.verdict("lat_p50_us", base, new), "gain")
        # Every pair wins, but by less than the parent's own IQR.
        self.assertEqual(self.verdict("lat_p50_us", base,
                                      [v - 0.5 for v in base]), "unchanged")

    def test_ties_count_for_neither_side(self):
        base = [100.0] * 10
        new = [90.0] * 8 + [100.0] * 2
        self.assertNotEqual(self.verdict("lat_p50_us", base, new), "gain")

    def test_higher_is_better(self):
        base = [1000, 1010, 990, 1005, 995, 1000, 1002, 998, 1001, 999]
        self.assertEqual(self.verdict("qps_sat", base,
                                      [v * 1.2 for v in base]), "gain")
        self.assertEqual(self.verdict("qps_sat", base,
                                      [v * 0.8 for v in base]), "regression")

    def test_regression_is_worse_than_the_bound(self):
        base = [100, 101, 99, 100, 100, 101, 99, 100, 100, 100]
        self.assertEqual(self.verdict("lat_p50_us", base,
                                      [v * 1.05 for v in base]), "unchanged")
        self.assertEqual(self.verdict("lat_p50_us", base,
                                      [v * 1.2 for v in base]), "regression")

    def test_wide_spread_is_unresolved_not_unchanged(self):
        base = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
        self.assertEqual(self.verdict("lat_p50_us", base, list(base)),
                         "unresolved")
        # Unless every change run beats every parent run.
        self.assertNotEqual(self.verdict("lat_p50_us", base, [50] * 10),
                            "unresolved")


class MainTest(unittest.TestCase):
    def test_reads_run_files_and_exits_on_regression(self):
        with tempfile.TemporaryDirectory() as tmp:
            bench = os.path.join(tmp, "BENCHMARK.json")
            with open(bench, "w") as f:
                json.dump({"end_to_end": list(BENCH.values())}, f)

            def write(name, value):
                path = os.path.join(tmp, name)
                with open(path, "w") as f:
                    json.dump({"workload": "explore", "seed": 1, "result": {
                        "metrics": {"lat_p50_us": {"value": value,
                                                   "unit": "us"}}}}, f)
                return path

            base = [write("b%d.json" % i, 100 + i % 2) for i in range(4)]
            same = [write("s%d.json" % i, 101 - i % 2) for i in range(4)]
            slow = [write("n%d.json" % i, 150 + i % 2) for i in range(4)]
            with contextlib.redirect_stdout(io.StringIO()) as out:
                same_rc = compare.main(["--bench", bench, "--same-code",
                                        "--base"] + base + ["--new"] + same)
                pairs_rc = compare.main(["--bench", bench, "--pairs",
                                         "--base"] + base + ["--new"] + slow)
            self.assertEqual((same_rc, pairs_rc), (0, 1))
            self.assertIn("agree", out.getvalue())
            self.assertIn("regression", out.getvalue())


if __name__ == "__main__":
    unittest.main()
