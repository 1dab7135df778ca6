#!/usr/bin/env python3
"""Compare sets of end-to-end benchmark runs (stdlib only).

Each RUN file is what `bench/e2e/run.sh --out FILE` writes: the run's
workload and seed plus its result line. Metrics, units, directions and
regression bounds come from BENCHMARK.json.

  compare.py RUN.json...
      Per (workload, metric): median, quartiles and spread (quartile
      distance as a share of the median) across the runs.

  compare.py --same-code --base RUN.json... --new RUN.json...
      Two sets of runs of the same code must agree: for every end-to-end
      metric and workload the medians may differ by at most the metric's
      bound, and each set's spread may not exceed it (setup_s's spread is
      exempt: set-up time only has to keep its median). Exits 1 otherwise.

  compare.py --pairs --base PARENT.json... --new CHANGE.json...
      Parent/change pairs, matched in the order given within each
      workload. A metric is a "gain" when the change wins at least nine
      tenths of the pairs (ties count for neither side) and the medians
      differ by more than the parent's quartile distance; "unresolved"
      when the parent's spread exceeds the bound, unless every change run
      beats every parent run; a "regression" when the change's median is
      worse than the parent's by more than the bound; else "unchanged".
      Exits 1 on any regression.
"""

import argparse
import json
import math
import os
import statistics
import sys

DEFAULT_BENCH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "..", "BENCHMARK.json")


def load_bench(path):
    """{metric: {"unit", "better", "bound"}} for the end-to-end metrics."""
    with open(path) as f:
        bench = json.load(f)
    return {m["name"]: m for m in bench["end_to_end"]}


def load_runs(paths):
    """{workload: [{metric: value}, ...]} in the order the files are given."""
    runs = {}
    for path in paths:
        with open(path) as f:
            run = json.load(f)
        metrics = {name: m["value"]
                   for name, m in run["result"]["metrics"].items()}
        runs.setdefault(run["workload"], []).append(metrics)
    return runs


def summarize(values):
    """Median, quartiles and spread, with statistics.quantiles' quartiles."""
    median = statistics.median(values)
    if len(values) < 2:
        q1 = q3 = median
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    iqr = q3 - q1
    if median != 0:
        spread = iqr / abs(median)
    else:
        spread = 0.0 if iqr == 0 else math.inf
    return {"median": median, "q1": q1, "q3": q3, "iqr": iqr,
            "spread": spread}


def worse_by(base, new, better):
    """How much worse `new` is than `base`, as a share of `base`."""
    if base == 0:
        return 0.0 if new == base else math.inf
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def is_better(a, b, better):
    return a < b if better == "lower" else a > b


# The one metric whose spread the same-code check leaves alone.
SPREAD_EXEMPT = {"setup_s"}


def same_code(base, new, bench):
    """Rows of (workload, metric, base summary, new summary, drift, ok)."""
    rows = []
    for workload in sorted(set(base) & set(new)):
        for name, spec in bench.items():
            a = [r[name] for r in base[workload] if name in r]
            b = [r[name] for r in new[workload] if name in r]
            if not a or not b:
                continue
            sa, sb = summarize(a), summarize(b)
            drift = abs(worse_by(sa["median"], sb["median"], spec["better"]))
            steady = (name in SPREAD_EXEMPT
                      or max(sa["spread"], sb["spread"]) <= spec["bound"])
            rows.append({"workload": workload, "metric": name, "base": sa,
                         "new": sb, "drift": drift,
                         "ok": drift <= spec["bound"] and steady})
    return rows


def pairs(base, new, bench):
    """Rows of (workload, metric, verdict, wins, pairs, worse_by)."""
    rows = []
    for workload in sorted(set(base) & set(new)):
        n = min(len(base[workload]), len(new[workload]))
        for name, spec in bench.items():
            a = [r[name] for r in base[workload][:n] if name in r]
            b = [r[name] for r in new[workload][:n] if name in r]
            if len(a) != n or len(b) != n or n == 0:
                continue
            better = spec["better"]
            sa, sb = summarize(a), summarize(b)
            wins = sum(is_better(y, x, better) for x, y in zip(a, b))
            worse = worse_by(sa["median"], sb["median"], better)
            all_better = all(is_better(y, x, better) for x in a for y in b)
            if (wins >= math.ceil(0.9 * n)
                    and abs(sb["median"] - sa["median"]) > sa["iqr"]
                    and is_better(sb["median"], sa["median"], better)):
                verdict = "gain"
            elif sa["spread"] > spec["bound"] and not all_better:
                verdict = "unresolved"
            elif worse > spec["bound"]:
                verdict = "regression"
            else:
                verdict = "unchanged"
            rows.append({"workload": workload, "metric": name,
                         "verdict": verdict, "wins": wins, "pairs": n,
                         "worse_by": worse, "base": sa, "new": sb})
    return rows


def fmt(x):
    return "%.6g" % x


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--same-code", action="store_true")
    mode.add_argument("--pairs", action="store_true")
    parser.add_argument("--bench", default=DEFAULT_BENCH)
    parser.add_argument("--base", nargs="+", default=[])
    parser.add_argument("--new", nargs="+", default=[])
    parser.add_argument("runs", nargs="*")
    args = parser.parse_args(argv)
    bench = load_bench(args.bench)

    if not (args.same_code or args.pairs):
        if not args.runs:
            parser.error("give RUN files, or --same-code/--pairs with "
                         "--base and --new")
        for workload, runs in sorted(load_runs(args.runs).items()):
            names = sorted({name for r in runs for name in r})
            for name in names:
                s = summarize([r[name] for r in runs if name in r])
                print("%-10s %-28s median %-12s q1 %-12s q3 %-12s spread %.4f"
                      % (workload, name, fmt(s["median"]), fmt(s["q1"]),
                         fmt(s["q3"]), s["spread"]))
        return 0

    if not args.base or not args.new:
        parser.error("--same-code and --pairs need --base and --new")
    base, new = load_runs(args.base), load_runs(args.new)
    failed = False
    if args.same_code:
        for r in same_code(base, new, bench):
            bound = bench[r["metric"]]["bound"]
            status = "agree" if r["ok"] else "DISAGREE"
            print("%-10s %-22s base %-12s new %-12s drift %.4f bound %.2f "
                  "spread %.4f/%.4f %s"
                  % (r["workload"], r["metric"], fmt(r["base"]["median"]),
                     fmt(r["new"]["median"]), r["drift"], bound,
                     r["base"]["spread"], r["new"]["spread"], status))
            failed |= not r["ok"]
    else:
        for r in pairs(base, new, bench):
            print("%-10s %-22s %-10s wins %d/%d worse_by %+.4f "
                  "base %s [%s, %s] new %s [%s, %s]"
                  % (r["workload"], r["metric"], r["verdict"], r["wins"],
                     r["pairs"], r["worse_by"], fmt(r["base"]["median"]),
                     fmt(r["base"]["q1"]), fmt(r["base"]["q3"]),
                     fmt(r["new"]["median"]), fmt(r["new"]["q1"]),
                     fmt(r["new"]["q3"])))
            failed |= r["verdict"] == "regression"
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
