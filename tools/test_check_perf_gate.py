#!/usr/bin/env python3
"""Unit tests for check_perf_gate.py (stdlib only; run via
`python3 -m unittest discover -s tools`)."""

import contextlib
import io
import json
import os
import tempfile
import unittest

import check_perf_gate


def enforced(value, op, bar, metric="m"):
    return {"metric": metric, "value": value, "op": op, "bar": bar}


class CheckRowTest(unittest.TestCase):
    def reason(self, row):
        return check_perf_gate.check_row(row)[1]

    def test_each_op_at_its_boundary(self):
        # (op, passes below the bar, passes at it, passes above it)
        cases = [("<", True, False, False), ("<=", True, True, False),
                 (">", False, False, True), (">=", False, True, True),
                 ("==", False, True, False)]
        for op, below, tie, above in cases:
            for value, passes in ((0.5, below), (1.0, tie), (1.5, above)):
                with self.subTest(op=op, value=value):
                    reason = self.reason(enforced(value, op, 1.0))
                    self.assertEqual(reason is None, passes, reason)

    def test_equal_latency_fails(self):
        # A strict bar: a path that only ties its baseline has not earned
        # its code.
        self.assertEqual(self.reason(enforced(955.0, "<", 955.0)),
                         "does not hold")

    def test_break_even_batching_passes(self):
        self.assertIsNone(self.reason(enforced(1.0, ">=", 1.0)))

    def test_recorded_rows_never_fail(self):
        for value in (0, -1e300, 1e300, 12038):
            self.assertIsNone(self.reason({"metric": "m", "value": value}))

    def test_malformed_rows_fail(self):
        rows = [
            "row",
            {"value": 1.0},
            {"metric": 3, "value": 1.0},
            {"metric": "m", "value": None},
            {"metric": "m", "value": "1"},
            {"metric": "m", "value": True},
            {"metric": "m", "value": float("nan")},
            enforced(1.0, "~", 2.0),
            enforced(1.0, "<", None),
            enforced(1.0, "<", float("inf")),
            {"metric": "m", "value": 1.0, "op": "<"},
            {"metric": "m", "value": 1.0, "bar": 2.0},
        ]
        for row in rows:
            with self.subTest(row=row):
                self.assertIsNotNone(self.reason(row))


class MainTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def write(self, name, text):
        path = os.path.join(self.dir.name, name)
        with open(path, "w") as f:
            f.write(text)
        return path

    def write_rows(self, name, *rows):
        return self.write(name, json.dumps({"rows": list(rows)}))

    def run_main(self, *paths):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(out):
            code = check_perf_gate.main(list(paths))
        return code, out.getvalue()

    def test_healthy_files_pass_and_print_every_row(self):
        a = self.write_rows("a.json", enforced(2.0, "<", 3.0, "fast_ns"),
                            {"metric": "rows", "value": 120000})
        b = self.write_rows("b.json", enforced(0.0, "<=", 1e-9, "rel_err"))
        code, out = self.run_main(a, b)
        self.assertEqual(code, 0, out)
        for text in ("fast_ns = 2.0 < 3.0", "rows = 120000",
                     "rel_err = 0.0 <= 1e-09"):
            self.assertIn(text, out)
        self.assertNotIn("FAIL", out)

    def test_failing_row_fails_the_run_and_names_the_row(self):
        path = self.write_rows(
            "a.json", enforced(1.0, "<", 2.0, "selective.pruned_ns"),
            enforced(3.0, "<", 2.0, "post_ns"))
        code, out = self.run_main(path)
        self.assertEqual(code, 1)
        self.assertIn("FAIL  post_ns = 3.0 < 2.0: does not hold", out)
        self.assertIn("ok    selective.pruned_ns", out)

    def test_bad_files_fail_with_a_fail_line_and_no_traceback(self):
        cases = {
            "invalid": "{\"rows\": [",
            "empty_object": "{}",
            "not_an_object": "[]",
            "empty_rows": "{\"rows\": []}",
            "null_value": "{\"rows\": [{\"metric\": \"m\", \"value\": null}]}",
            "unknown_op": json.dumps({"rows": [enforced(1.0, "=<", 2.0)]}),
        }
        paths = {name: self.write(name + ".json", text)
                 for name, text in cases.items()}
        paths["missing"] = os.path.join(self.dir.name, "missing.json")
        for name, path in paths.items():
            with self.subTest(name):
                code, out = self.run_main(path)
                self.assertEqual(code, 1)
                self.assertIn("FAIL", out)
                self.assertNotIn("Traceback", out)

    def test_every_failure_across_files_is_printed(self):
        missing = os.path.join(self.dir.name, "missing.json")
        empty = self.write("empty.json", "{}")
        slow = self.write_rows("slow.json", enforced(9.0, "<", 1.0, "a_ns"),
                               enforced(9.0, "<", 1.0, "b_ns"))
        code, out = self.run_main(missing, empty, slow)
        self.assertEqual(code, 1)
        self.assertIn(f"FAIL  {missing} cannot read", out)
        self.assertIn(f"FAIL  {empty} has no rows", out)
        self.assertIn("FAIL  a_ns", out)
        self.assertIn("FAIL  b_ns", out)
        self.assertIn("FAIL: 4 failure(s)", out)

    def test_no_files_fails(self):
        self.assertNotEqual(self.run_main()[0], 0)


if __name__ == "__main__":
    unittest.main()
