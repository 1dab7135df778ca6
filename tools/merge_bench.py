#!/usr/bin/env python3
"""Merges per-benchmark JSON outputs into one CI artifact.

Replaces the inline heredoc the CI workflow used to carry: one artifact
per PR generation keeps a perf trajectory across the stacked PRs, and the
artifact name is an argument so each PR's workflow line only changes in
one place.

Usage:
    merge_bench.py --out BENCH_pr5.json \
        --bench bench_solver.json [--bench ...] \
        --extra routed_vs_single_accuracy=engine_throughput_gate.json \
        [--extra ...] \
        [--diff BENCH_pr5_baseline.json] [--diff-fail]

Each --bench file lands under its filename stem; each --extra lands under
the given key. --diff compares the merged artifact's STRUCTURE (section
keys and google-benchmark names — timings are machine-dependent and never
compared) against a committed baseline, printing any drift so a bench
added or dropped without updating the in-tree trajectory file is visible
in the CI log; --diff-fail turns that drift into a non-zero exit. Stdlib
only (CI runs it on a bare runner).
"""

import argparse
import json
import pathlib
import sys


def merge(bench_paths, extra_specs):
    """Builds the merged dict from --bench paths and KEY=FILE specs."""
    merged = {}
    for path in bench_paths:
        with open(path) as f:
            merged[pathlib.Path(path).stem] = json.load(f)
    for spec in extra_specs:
        key, _, path = spec.partition("=")
        if not path:
            raise ValueError(f"--extra needs KEY=FILE, got: {spec}")
        with open(path) as f:
            merged[key] = json.load(f)
    return merged


def bench_names(section):
    """Benchmark names of one google-benchmark section ([] for extras)."""
    if isinstance(section, dict) and isinstance(section.get("benchmarks"),
                                                list):
        return sorted(b.get("name", "?") for b in section["benchmarks"])
    return []


def structural_diff(merged, baseline):
    """Drift lines between a merged artifact and a committed baseline.

    Only structure is compared — section keys and benchmark names — so the
    diff is deterministic across machines; timings are expected to move.
    """
    drift = []
    for key in sorted(set(baseline) - set(merged)):
        drift.append(f"section '{key}' is in the baseline but not this run")
    for key in sorted(set(merged) - set(baseline)):
        drift.append(f"section '{key}' is new (not in the baseline)")
    for key in sorted(set(merged) & set(baseline)):
        ours = set(bench_names(merged[key]))
        theirs = set(bench_names(baseline[key]))
        for name in sorted(theirs - ours):
            drift.append(f"benchmark '{name}' ({key}) vanished vs baseline")
        for name in sorted(ours - theirs):
            drift.append(f"benchmark '{name}' ({key}) is new vs baseline")
    return drift


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True,
                        help="merged artifact path, e.g. BENCH_pr5.json")
    parser.add_argument("--bench", action="append", default=[],
                        metavar="FILE",
                        help="google-benchmark JSON; keyed by filename stem")
    parser.add_argument("--extra", action="append", default=[],
                        metavar="KEY=FILE",
                        help="auxiliary JSON (accuracy/crossover/gate files)")
    parser.add_argument("--diff", metavar="BASELINE", default=None,
                        help="committed artifact to structurally diff against")
    parser.add_argument("--diff-fail", action="store_true",
                        help="exit non-zero when --diff finds drift")
    args = parser.parse_args(argv)

    try:
        merged = merge(args.bench, args.extra)
    except ValueError as err:
        print(err, file=sys.stderr)
        return 2

    with open(args.out, "w") as f:
        json.dump(merged, f, indent=2)
    print(f"wrote {args.out} ({len(merged)} sections)")

    if args.diff is not None:
        with open(args.diff) as f:
            baseline = json.load(f)
        drift = structural_diff(merged, baseline)
        if drift:
            for line in drift:
                print(f"DRIFT vs {args.diff}: {line}",
                      file=sys.stderr if args.diff_fail else sys.stdout)
            if args.diff_fail:
                return 1
        else:
            print(f"no structural drift vs {args.diff}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
