#!/usr/bin/env python3
"""CI gate over the files bench binaries write with --gate_out.

A gate file is {"rows": [...]}. Every row names a metric and its value.
A row that also carries an op (one of < <= > >= ==) and a bar is
enforced: it fails unless `value op bar` holds. A row without them is
recorded for the trajectory and never fails. Each bar is stated once,
in the bench, beside its measurement; this script knows none of them.

A file fails when it is missing, cannot be parsed or has no rows. A row
fails when its metric is not a string, its value is not a finite number,
or it has an unknown op or a non-finite bar. Every row and every failure
is printed; the exit status is 1 if anything failed.

Usage:
    check_perf_gate.py GATE_JSON [GATE_JSON ...]

Stdlib only (CI runs it on a bare runner).
"""

import json
import math
import operator
import sys

OPS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
}


def is_finite_number(x):
    # bool is an int subclass, but a JSON true is no measurement.
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and math.isfinite(x))


def check_row(row):
    """(printable row, failure reason or None) for one gate row."""
    if not isinstance(row, dict) or not isinstance(row.get("metric"), str):
        return repr(row), "metric is not a string"
    metric, value = row["metric"], row.get("value")
    if not is_finite_number(value):
        return f"{metric} = {value!r}", "value is not a finite number"
    if "op" not in row and "bar" not in row:
        return f"{metric} = {value!r}", None
    op, bar = row.get("op"), row.get("bar")
    text = f"{metric} = {value!r} {op} {bar!r}"
    if op not in OPS:
        return text, f"unknown op {op!r}"
    if not is_finite_number(bar):
        return text, "bar is not a finite number"
    if not OPS[op](value, bar):
        return text, "does not hold"
    return text, None


def load_rows(path):
    """(rows, failure reason or None) for one gate file."""
    try:
        with open(path) as f:
            gate = json.load(f)
    except (OSError, ValueError) as err:
        return [], f"cannot read: {err}"
    rows = gate.get("rows") if isinstance(gate, dict) else None
    if not isinstance(rows, list) or not rows:
        return [], "has no rows"
    return rows, None


def main(argv=None):
    paths = sys.argv[1:] if argv is None else argv
    if not paths:
        print("usage: check_perf_gate.py GATE_JSON [GATE_JSON ...]",
              file=sys.stderr)
        return 2
    failures = enforced = 0
    for path in paths:
        print(f"{path}:")
        rows, reason = load_rows(path)
        if reason is not None:
            print(f"  FAIL  {path} {reason}")
            failures += 1
        for row in rows:
            text, reason = check_row(row)
            if reason is not None:
                print(f"  FAIL  {text}: {reason}")
                failures += 1
            elif "op" in row:
                print(f"  ok    {text}")
                enforced += 1
            else:
                print(f"        {text}")
    if failures:
        print(f"FAIL: {failures} failure(s) across {len(paths)} gate file(s)")
        return 1
    print(f"OK: {enforced} enforced row(s) hold across {len(paths)} gate "
          f"file(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
