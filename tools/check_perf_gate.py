#!/usr/bin/env python3
"""CI perf-regression gate over the bench-emitted gate JSON files.

Four gates, one script (all are claims the PRs that introduced them must
keep true):

  * sample-index (bench_sample_index --index_out): indexed and scan
    evaluation stayed bitwise identical, indexed evaluation is actually
    FASTER than the scan on the selective workload and on the wide
    multi-group workload (the row-bitmap walk), and the broad workload's
    cutover overhead stays within --tolerance.
  * shard-scaling (bench_shard_scaling --shard_out, via --shard FILE):
    merged sharded COUNT/SUM estimates match the additive per-shard
    reference to <= 1e-9 relative error, and — when the measuring machine
    had more than one core — the parallel S-shard build beat the
    single-shard build wall-clock. On a single core the shard fan-out
    degrades inline (strictly more total work than one shard), so the
    wall bar is reported but not enforced; the JSON's `cores` field says
    which regime the measurement ran in.
  * durability (bench_durability --durability_out, via --durability FILE):
    opening a store with checksum verification ON stays within
    --open-tolerance (default 1.05x) of the unverified open. Save wall
    time and WAL append throughput ride along in the JSON for the
    trajectory but are fsync-bound, so they are recorded, not enforced.
  * shard-pruning (bench_shard_pruning --prune_out, via --prune FILE):
    pruned answers stayed bitwise identical to the full fan-out, the
    pruned selective workload beat the full fan-out at S=16 (pruning
    removes work, so this bar holds on any core count), and the broad
    workload — where nothing can be pruned — stays within
    --prune-tolerance of the full fan-out (the zone-map consultation
    itself must be noise).
  * compaction (bench_compaction --compact_out, via --compact FILE):
    every merged answer on the compacted store stays within the 1e-9
    merge bar of the batch-bloated store's answer, and the selective
    workload is strictly faster afterwards (compaction folds shards, so
    every query fans out over fewer models — enforceable on any core
    count). Compaction wall time rides along in the JSON for the
    trajectory but is recorded, not enforced.
  * join (bench_join --join_out, via --join FILE): fused JOIN_COUNT and
    JOIN_SUM estimates over exactly-pinned models stay within 1e-4
    (relative) of brute-force ground truth across the query battery, and
    the fused estimate beats the exact two-sided scan (the fusion reads
    two model marginals; the scan reads every row of both relations —
    enforceable on any core count).
  * serving (bench_serving --serving_out, via --serving FILE): a result
    cache hit through the wire is >= 10x faster than the uncached query
    (a hit skips maxent evaluation entirely), and batched throughput at
    8 concurrent clients is >= serial throughput (one BATCH frame
    amortizes the per-request round trip and evaluates the shared model
    once per dispatch). Both bars are core-count independent. p50/p99
    latency and 1/4/8-client QPS ride along, recorded, not enforced.

Usage:
    check_perf_gate.py build/sample_index_gate.json \
        [--shard build/shard_scaling_gate.json] \
        [--durability build/durability_gate.json] \
        [--prune build/prune_gate.json] \
        [--compact build/compact_gate.json] \
        [--serving build/serving_gate.json] \
        [--join build/join_gate.json] \
        [--tolerance 1.25] [--open-tolerance 1.05] [--prune-tolerance 1.25]

Stdlib only (CI runs it on a bare runner). The check_* functions return
failure-message lists so tools/test_check_perf_gate.py can unit-test the
rules without files or subprocesses.
"""

import argparse
import json
import sys

#: Relative-error bar for merged-vs-additive sharded estimates.
SHARD_MERGE_TOLERANCE = 1e-9

#: Minimum wire-level speedup of a result-cache hit over the uncached
#: query (a hit skips maxent evaluation entirely).
SERVING_CACHE_SPEEDUP_BAR = 10.0

#: Relative-error bar for fused join estimates against brute-force ground
#: truth on exactly-pinned models (bench_join pins the per-side joints with
#: full pair statistics, so only the fusion algebra is on trial).
JOIN_FIDELITY_BAR = 1e-4


def check_sample_index(gate, tolerance=1.25):
    """Failure messages for a bench_sample_index gate dict (empty = pass)."""
    failures = []
    if not gate.get("bitwise_identical", False):
        failures.append("indexed evaluation is not bitwise identical to scan")

    # A gate whose job is to fail on drift must treat missing data as a
    # failure: a renamed/dropped workload section means the bench stopped
    # measuring what this script checks.
    for section in ("selective", "wide", "broad"):
        for key in ("indexed_ns", "scan_ns"):
            if not isinstance(gate.get(section, {}).get(key), (int, float)):
                failures.append(f"gate JSON is missing {section}.{key}")
    if failures:
        return failures

    for section in ("selective", "wide"):
        timing = gate[section]
        if not timing["indexed_ns"] < timing["scan_ns"]:
            failures.append(
                f"{section} workload: indexed ({timing['indexed_ns']:.0f} "
                f"ns/query) is not faster than scan "
                f"({timing['scan_ns']:.0f} ns/query)")

    broad = gate["broad"]
    broad_ratio = broad["indexed_ns"] / max(broad["scan_ns"], 1.0)
    if broad_ratio > tolerance:
        failures.append(
            f"broad workload: indexed is {broad_ratio:.2f}x scan "
            f"(tolerance {tolerance:.2f}x) — cutover overhead regressed")
    return failures


def check_shard_scaling(gate):
    """Failure messages for a bench_shard_scaling gate dict (empty = pass)."""
    failures = []
    for key in ("count_max_rel_err", "sum_max_rel_err"):
        value = gate.get("merge", {}).get(key)
        if not isinstance(value, (int, float)):
            failures.append(f"gate JSON is missing merge.{key}")
        elif value > SHARD_MERGE_TOLERANCE:
            failures.append(
                f"merged sharded estimates drifted from the additive "
                f"per-shard reference: merge.{key} = {value:.3g} "
                f"(bar {SHARD_MERGE_TOLERANCE:.0e})")
    build = gate.get("build", {})
    for key in ("s1_seconds", "sharded_seconds"):
        if not isinstance(build.get(key), (int, float)):
            failures.append(f"gate JSON is missing build.{key}")
    if not isinstance(gate.get("cores"), (int, float)):
        failures.append("gate JSON is missing cores")
    if failures:
        return failures

    # The parallel-build bar only holds where parallelism exists; a
    # single-core measurement records the ratio without enforcing it.
    if gate["cores"] > 1 and not build["sharded_seconds"] < build["s1_seconds"]:
        failures.append(
            f"parallel sharded build ({build['sharded_seconds']:.3f}s) is "
            f"not faster than the single-shard build "
            f"({build['s1_seconds']:.3f}s) on {gate['cores']:.0f} cores")
    return failures


def check_durability(gate, open_tolerance=1.05):
    """Failure messages for a bench_durability gate dict (empty = pass)."""
    failures = []
    open_section = gate.get("open", {})
    for key in ("verified_seconds", "unverified_seconds", "overhead_ratio"):
        if not isinstance(open_section.get(key), (int, float)):
            failures.append(f"gate JSON is missing open.{key}")
    for key in ("synced_records_per_sec", "unsynced_records_per_sec"):
        if not isinstance(gate.get("wal", {}).get(key), (int, float)):
            failures.append(f"gate JSON is missing wal.{key}")
    if failures:
        return failures

    if open_section["overhead_ratio"] > open_tolerance:
        failures.append(
            f"checksummed store open is "
            f"{open_section['overhead_ratio']:.3f}x the unverified open "
            f"(tolerance {open_tolerance:.2f}x) — verification overhead "
            f"regressed")
    return failures


def check_prune(gate, prune_tolerance=1.25):
    """Failure messages for a bench_shard_pruning gate dict (empty = pass)."""
    failures = []
    if not gate.get("identical", False):
        failures.append(
            "pruned answers are not bitwise identical to the full fan-out")
    for section in ("selective", "moderate", "broad"):
        for key in ("pruned_ns", "full_ns"):
            if not isinstance(gate.get(section, {}).get(key), (int, float)):
                failures.append(f"gate JSON is missing {section}.{key}")
    if not isinstance(gate.get("shards"), (int, float)):
        failures.append("gate JSON is missing shards")
    if failures:
        return failures

    selective = gate["selective"]
    if not selective["pruned_ns"] < selective["full_ns"]:
        failures.append(
            f"selective workload: pruned fan-out "
            f"({selective['pruned_ns']:.0f} ns/query) is not faster than "
            f"the full fan-out ({selective['full_ns']:.0f} ns/query) at "
            f"S={gate['shards']:.0f}")

    # Nothing prunes on the broad workload, so any ratio above noise means
    # the zone-map consultation itself got expensive.
    broad = gate["broad"]
    broad_ratio = broad["pruned_ns"] / max(broad["full_ns"], 1.0)
    if broad_ratio > prune_tolerance:
        failures.append(
            f"broad workload: pruning enabled is {broad_ratio:.2f}x the "
            f"full fan-out (tolerance {prune_tolerance:.2f}x) — zone-map "
            f"consultation overhead regressed")
    return failures


def check_compact(gate):
    """Failure messages for a bench_compaction gate dict (empty = pass)."""
    failures = []
    for key in ("merge_max_rel_err", "pre_ns", "post_ns", "pre_shards",
                "post_shards"):
        if not isinstance(gate.get(key), (int, float)):
            failures.append(f"gate JSON is missing {key}")
    if failures:
        return failures

    if gate["merge_max_rel_err"] > SHARD_MERGE_TOLERANCE:
        failures.append(
            f"compacted-store answers drifted from the pre-compaction "
            f"store: merge_max_rel_err = {gate['merge_max_rel_err']:.3g} "
            f"(bar {SHARD_MERGE_TOLERANCE:.0e})")
    if not gate["post_ns"] < gate["pre_ns"]:
        failures.append(
            f"selective workload on the compacted store "
            f"({gate['post_ns']:.0f} ns/query, "
            f"{gate['post_shards']:.0f} shards) is not faster than the "
            f"batch-bloated store ({gate['pre_ns']:.0f} ns/query, "
            f"{gate['pre_shards']:.0f} shards)")
    return failures


def check_serving(gate):
    """Failure messages for a bench_serving gate dict (empty = pass)."""
    failures = []
    latency = gate.get("latency", {})
    for key in ("uncached_ns", "cached_ns", "cache_speedup"):
        if not isinstance(latency.get(key), (int, float)):
            failures.append(f"gate JSON is missing latency.{key}")
    throughput = gate.get("throughput", {})
    for key in ("qps_8", "batched_qps_8", "batch_speedup"):
        if not isinstance(throughput.get(key), (int, float)):
            failures.append(f"gate JSON is missing throughput.{key}")
    if failures:
        return failures

    if latency["cache_speedup"] < SERVING_CACHE_SPEEDUP_BAR:
        failures.append(
            f"result-cache hit ({latency['cached_ns']:.0f} ns) is only "
            f"{latency['cache_speedup']:.1f}x faster than the uncached "
            f"query ({latency['uncached_ns']:.0f} ns) — bar "
            f"{SERVING_CACHE_SPEEDUP_BAR:.0f}x; a hit must skip maxent "
            f"evaluation entirely")
    if throughput["batch_speedup"] < 1.0:
        failures.append(
            f"batched throughput at 8 clients "
            f"({throughput['batched_qps_8']:.0f} QPS) fell below serial "
            f"({throughput['qps_8']:.0f} QPS) — micro-batching must not "
            f"cost throughput")
    return failures


def check_join(gate):
    """Failure messages for a bench_join gate dict (empty = pass)."""
    failures = []
    fidelity = gate.get("fidelity", {})
    for key in ("count_max_rel_err", "sum_max_rel_err"):
        if not isinstance(fidelity.get(key), (int, float)):
            failures.append(f"gate JSON is missing fidelity.{key}")
    latency = gate.get("latency", {})
    for key in ("fused_ns", "exact_ns"):
        if not isinstance(latency.get(key), (int, float)):
            failures.append(f"gate JSON is missing latency.{key}")
    if failures:
        return failures

    for key in ("count_max_rel_err", "sum_max_rel_err"):
        if fidelity[key] > JOIN_FIDELITY_BAR:
            failures.append(
                f"fused join estimates drifted from brute-force ground "
                f"truth: fidelity.{key} = {fidelity[key]:.3g} "
                f"(bar {JOIN_FIDELITY_BAR:.0e})")
    if not latency["fused_ns"] < latency["exact_ns"]:
        failures.append(
            f"fused join ({latency['fused_ns']:.0f} ns/query) is not "
            f"faster than the exact two-sided scan "
            f"({latency['exact_ns']:.0f} ns/query) — fusing two model "
            f"marginals must beat reading every row")
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("gate_json",
                        help="file written by bench_sample_index --index_out")
    parser.add_argument("--shard", metavar="FILE", default=None,
                        help="file written by bench_shard_scaling --shard_out")
    parser.add_argument("--durability", metavar="FILE", default=None,
                        help="file written by bench_durability "
                             "--durability_out")
    parser.add_argument("--prune", metavar="FILE", default=None,
                        help="file written by bench_shard_pruning "
                             "--prune_out")
    parser.add_argument("--compact", metavar="FILE", default=None,
                        help="file written by bench_compaction "
                             "--compact_out")
    parser.add_argument("--serving", metavar="FILE", default=None,
                        help="file written by bench_serving "
                             "--serving_out")
    parser.add_argument("--join", metavar="FILE", default=None,
                        help="file written by bench_join --join_out")
    parser.add_argument("--tolerance", type=float, default=1.25,
                        help="max indexed/scan ratio on the broad workload")
    parser.add_argument("--open-tolerance", type=float, default=1.05,
                        help="max verified/unverified store-open ratio")
    parser.add_argument("--prune-tolerance", type=float, default=1.25,
                        help="max pruned/full ratio on the broad (nothing "
                             "prunable) workload")
    args = parser.parse_args(argv)

    with open(args.gate_json) as f:
        index_gate = json.load(f)
    failures = check_sample_index(index_gate, args.tolerance)

    # Summary lines guard EVERY key they print: a partially written gate
    # file must fall through to the FAIL diagnostics, not die mid-print.
    print(f"sample-index perf gate over {args.gate_json}:")
    selective = index_gate.get("selective", {})
    if all(isinstance(selective.get(k), (int, float))
           for k in ("indexed_ns", "scan_ns")):
        print(f"  selective: indexed {selective['indexed_ns']:.0f} ns/query "
              f"vs scan {selective['scan_ns']:.0f} ns/query "
              f"({selective.get('speedup', 0.0):.2f}x)")

    if args.shard is not None:
        with open(args.shard) as f:
            shard_gate = json.load(f)
        failures += check_shard_scaling(shard_gate)
        print(f"shard-scaling perf gate over {args.shard}:")
        build = shard_gate.get("build", {})
        if all(isinstance(build.get(k), (int, float))
               for k in ("s1_seconds", "sharded_seconds")):
            print(f"  build: S=1 {build['s1_seconds']:.3f}s vs sharded "
                  f"{build['sharded_seconds']:.3f}s "
                  f"({build.get('speedup', 0.0):.2f}x on "
                  f"{shard_gate.get('cores', 0):.0f} cores)")
        merge = shard_gate.get("merge", {})
        if all(isinstance(merge.get(k), (int, float))
               for k in ("count_max_rel_err", "sum_max_rel_err")):
            print(f"  merge: count rel err {merge['count_max_rel_err']:.3g}, "
                  f"sum rel err {merge['sum_max_rel_err']:.3g} "
                  f"(bar {SHARD_MERGE_TOLERANCE:.0e})")

    if args.durability is not None:
        with open(args.durability) as f:
            durability_gate = json.load(f)
        failures += check_durability(durability_gate, args.open_tolerance)
        print(f"durability perf gate over {args.durability}:")
        open_section = durability_gate.get("open", {})
        if all(isinstance(open_section.get(k), (int, float))
               for k in ("verified_seconds", "unverified_seconds",
                         "overhead_ratio")):
            print(f"  open: verified {open_section['verified_seconds']:.4f}s "
                  f"vs unverified "
                  f"{open_section['unverified_seconds']:.4f}s "
                  f"({open_section['overhead_ratio']:.3f}x, bar "
                  f"{args.open_tolerance:.2f}x)")
        wal = durability_gate.get("wal", {})
        if all(isinstance(wal.get(k), (int, float))
               for k in ("synced_records_per_sec",
                         "unsynced_records_per_sec")):
            print(f"  wal: {wal['synced_records_per_sec']:.0f} rec/s synced, "
                  f"{wal['unsynced_records_per_sec']:.0f} rec/s unsynced "
                  f"(recorded, not enforced)")

    if args.prune is not None:
        with open(args.prune) as f:
            prune_gate = json.load(f)
        failures += check_prune(prune_gate, args.prune_tolerance)
        print(f"shard-pruning perf gate over {args.prune}:")
        for section in ("selective", "moderate", "broad"):
            row = prune_gate.get(section, {})
            if all(isinstance(row.get(k), (int, float))
                   for k in ("pruned_ns", "full_ns")):
                print(f"  {section}: pruned {row['pruned_ns']:.0f} ns/query "
                      f"vs full {row['full_ns']:.0f} ns/query "
                      f"({row.get('speedup', 0.0):.2f}x, "
                      f"{row.get('avg_pruned_shards', 0.0):.1f}/"
                      f"{prune_gate.get('shards', 0):.0f} shards pruned)")

    if args.compact is not None:
        with open(args.compact) as f:
            compact_gate = json.load(f)
        failures += check_compact(compact_gate)
        print(f"compaction perf gate over {args.compact}:")
        if all(isinstance(compact_gate.get(k), (int, float))
               for k in ("pre_ns", "post_ns", "pre_shards", "post_shards")):
            print(f"  selective: {compact_gate['pre_ns']:.0f} ns/query on "
                  f"{compact_gate['pre_shards']:.0f} shards -> "
                  f"{compact_gate['post_ns']:.0f} ns/query on "
                  f"{compact_gate['post_shards']:.0f} shards "
                  f"({compact_gate.get('speedup', 0.0):.2f}x)")
        if isinstance(compact_gate.get("merge_max_rel_err"), (int, float)):
            print(f"  merge: max rel err "
                  f"{compact_gate['merge_max_rel_err']:.3g} "
                  f"(bar {SHARD_MERGE_TOLERANCE:.0e}), compaction wall "
                  f"{compact_gate.get('compact_seconds', 0.0):.2f}s "
                  f"(recorded, not enforced)")

    if args.serving is not None:
        with open(args.serving) as f:
            serving_gate = json.load(f)
        failures += check_serving(serving_gate)
        print(f"serving perf gate over {args.serving}:")
        latency = serving_gate.get("latency", {})
        if all(isinstance(latency.get(k), (int, float))
               for k in ("uncached_ns", "cached_ns", "cache_speedup")):
            print(f"  latency: uncached {latency['uncached_ns']:.0f} ns "
                  f"(p50 {latency.get('p50_ns', 0.0):.0f}, "
                  f"p99 {latency.get('p99_ns', 0.0):.0f}) vs cached "
                  f"{latency['cached_ns']:.0f} ns "
                  f"({latency['cache_speedup']:.1f}x, bar "
                  f"{SERVING_CACHE_SPEEDUP_BAR:.0f}x)")
        throughput = serving_gate.get("throughput", {})
        if all(isinstance(throughput.get(k), (int, float))
               for k in ("qps_1", "qps_4", "qps_8", "batched_qps_8",
                         "batch_speedup")):
            print(f"  QPS: 1 client {throughput['qps_1']:.0f}, 4 clients "
                  f"{throughput['qps_4']:.0f}, 8 clients "
                  f"{throughput['qps_8']:.0f}, batched at 8 "
                  f"{throughput['batched_qps_8']:.0f} "
                  f"({throughput['batch_speedup']:.2f}x serial, bar 1x)")

    if args.join is not None:
        with open(args.join) as f:
            join_gate = json.load(f)
        failures += check_join(join_gate)
        print(f"join perf gate over {args.join}:")
        fidelity = join_gate.get("fidelity", {})
        if all(isinstance(fidelity.get(k), (int, float))
               for k in ("count_max_rel_err", "sum_max_rel_err")):
            print(f"  fidelity: count rel err "
                  f"{fidelity['count_max_rel_err']:.3g}, sum rel err "
                  f"{fidelity['sum_max_rel_err']:.3g} "
                  f"(bar {JOIN_FIDELITY_BAR:.0e})")
        latency = join_gate.get("latency", {})
        if all(isinstance(latency.get(k), (int, float))
               for k in ("fused_ns", "exact_ns")):
            print(f"  latency: fused {latency['fused_ns']:.0f} ns/query vs "
                  f"exact scan {latency['exact_ns']:.0f} ns/query "
                  f"({latency.get('speedup', 0.0):.1f}x)")

    for failure in failures:
        print(f"  FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("  OK")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
