#!/usr/bin/env python3
"""Unit tests for check_perf_gate.py (stdlib only; run via
`python3 -m unittest discover -s tools`)."""

import json
import os
import tempfile
import unittest

import check_perf_gate


def index_gate(**overrides):
    gate = {
        "bitwise_identical": True,
        "selective": {"indexed_ns": 1000.0, "scan_ns": 25000.0,
                      "speedup": 25.0},
        "wide": {"indexed_ns": 10000.0, "scan_ns": 25000.0, "speedup": 2.5},
        "broad": {"indexed_ns": 9000.0, "scan_ns": 9000.0, "speedup": 1.0},
    }
    gate.update(overrides)
    return gate


def shard_gate(**overrides):
    gate = {
        "cores": 4,
        "rows": 160000,
        "shards": 4,
        "build": {"s1_seconds": 0.080, "sharded_seconds": 0.030,
                  "speedup": 2.67},
        "merge": {"queries": 64, "count_max_rel_err": 0.0,
                  "sum_max_rel_err": 0.0},
        "pass": True,
    }
    gate.update(overrides)
    return gate


class SampleIndexGateTest(unittest.TestCase):
    def test_healthy_gate_passes(self):
        self.assertEqual(check_perf_gate.check_sample_index(index_gate()), [])

    def test_bitwise_mismatch_fails(self):
        failures = check_perf_gate.check_sample_index(
            index_gate(bitwise_identical=False))
        self.assertTrue(any("bitwise" in f for f in failures))

    def test_slow_selective_fails(self):
        gate = index_gate()
        gate["selective"]["indexed_ns"] = gate["selective"]["scan_ns"] + 1
        failures = check_perf_gate.check_sample_index(gate)
        self.assertTrue(any("selective" in f for f in failures))

    def test_slow_or_tied_wide_fails(self):
        # The bar is strict: a bitmap walk that only matches the scan has
        # not earned its code.
        for extra_ns in (1.0, 0.0):
            gate = index_gate()
            gate["wide"]["indexed_ns"] = gate["wide"]["scan_ns"] + extra_ns
            failures = check_perf_gate.check_sample_index(gate)
            self.assertEqual(len(failures), 1)
            self.assertIn("wide workload", failures[0])

    def test_broad_overhead_beyond_tolerance_fails(self):
        gate = index_gate()
        gate["broad"]["indexed_ns"] = 2.0 * gate["broad"]["scan_ns"]
        failures = check_perf_gate.check_sample_index(gate, tolerance=1.25)
        self.assertTrue(any("broad" in f for f in failures))
        self.assertEqual(
            check_perf_gate.check_sample_index(gate, tolerance=2.5), [])

    def test_missing_sections_fail_instead_of_passing_silently(self):
        gate = index_gate()
        del gate["selective"]
        failures = check_perf_gate.check_sample_index(gate)
        self.assertTrue(any("missing selective" in f for f in failures))

    def test_missing_wide_section_fails(self):
        gate = index_gate()
        del gate["wide"]
        failures = check_perf_gate.check_sample_index(gate)
        self.assertEqual(failures, ["gate JSON is missing wide.indexed_ns",
                                    "gate JSON is missing wide.scan_ns"])


class ShardScalingGateTest(unittest.TestCase):
    def test_healthy_gate_passes(self):
        self.assertEqual(check_perf_gate.check_shard_scaling(shard_gate()), [])

    def test_merge_drift_fails(self):
        gate = shard_gate()
        gate["merge"]["count_max_rel_err"] = 1e-6
        failures = check_perf_gate.check_shard_scaling(gate)
        self.assertTrue(any("count_max_rel_err" in f for f in failures))

    def test_sum_drift_fails(self):
        gate = shard_gate()
        gate["merge"]["sum_max_rel_err"] = 2e-9
        failures = check_perf_gate.check_shard_scaling(gate)
        self.assertTrue(any("sum_max_rel_err" in f for f in failures))

    def test_slow_parallel_build_fails_on_multicore(self):
        gate = shard_gate()
        gate["build"]["sharded_seconds"] = gate["build"]["s1_seconds"] * 1.5
        failures = check_perf_gate.check_shard_scaling(gate)
        self.assertTrue(any("not faster" in f for f in failures))

    def test_single_core_skips_the_wall_clock_bar(self):
        # On one core the fan-out degrades inline and does strictly more
        # total work; only the merge bar is enforceable there.
        gate = shard_gate(cores=1)
        gate["build"]["sharded_seconds"] = gate["build"]["s1_seconds"] * 1.5
        self.assertEqual(check_perf_gate.check_shard_scaling(gate), [])

    def test_missing_fields_fail_instead_of_passing_silently(self):
        gate = shard_gate()
        del gate["merge"]["sum_max_rel_err"]
        failures = check_perf_gate.check_shard_scaling(gate)
        self.assertTrue(any("missing merge.sum_max_rel_err" in f
                            for f in failures))
        gate = shard_gate()
        del gate["cores"]
        failures = check_perf_gate.check_shard_scaling(gate)
        self.assertTrue(any("missing cores" in f for f in failures))


def durability_gate(**overrides):
    gate = {
        "rows": 100000,
        "save_seconds": 0.050,
        "open": {"verified_seconds": 0.0205, "unverified_seconds": 0.0200,
                 "overhead_ratio": 1.025},
        "wal": {"synced_records_per_sec": 900.0,
                "unsynced_records_per_sec": 400000.0,
                "bytes_per_record": 1024},
        "pass": True,
    }
    gate.update(overrides)
    return gate


class DurabilityGateTest(unittest.TestCase):
    def test_healthy_gate_passes(self):
        self.assertEqual(check_perf_gate.check_durability(durability_gate()),
                         [])

    def test_open_overhead_beyond_tolerance_fails(self):
        gate = durability_gate()
        gate["open"]["overhead_ratio"] = 1.20
        failures = check_perf_gate.check_durability(gate)
        self.assertTrue(any("verification overhead" in f for f in failures))
        self.assertEqual(
            check_perf_gate.check_durability(gate, open_tolerance=1.5), [])

    def test_missing_fields_fail_instead_of_passing_silently(self):
        gate = durability_gate()
        del gate["open"]["overhead_ratio"]
        failures = check_perf_gate.check_durability(gate)
        self.assertTrue(any("missing open.overhead_ratio" in f
                            for f in failures))
        gate = durability_gate()
        del gate["wal"]
        failures = check_perf_gate.check_durability(gate)
        self.assertTrue(any("missing wal.synced_records_per_sec" in f
                            for f in failures))


def prune_gate(**overrides):
    gate = {
        "shards": 16,
        "rows": 120000,
        "identical": True,
        "selective": {"pruned_ns": 4000.0, "full_ns": 52000.0,
                      "speedup": 13.0, "avg_pruned_shards": 15.0},
        "moderate": {"pruned_ns": 28000.0, "full_ns": 52000.0,
                     "speedup": 1.86, "avg_pruned_shards": 8.0},
        "broad": {"pruned_ns": 52000.0, "full_ns": 52000.0,
                  "speedup": 1.0, "avg_pruned_shards": 0.0},
        "pass": True,
    }
    gate.update(overrides)
    return gate


class PruneGateTest(unittest.TestCase):
    def test_healthy_gate_passes(self):
        self.assertEqual(check_perf_gate.check_prune(prune_gate()), [])

    def test_bitwise_mismatch_fails(self):
        failures = check_perf_gate.check_prune(prune_gate(identical=False))
        self.assertTrue(any("bitwise" in f for f in failures))

    def test_slow_selective_fails(self):
        gate = prune_gate()
        gate["selective"]["pruned_ns"] = gate["selective"]["full_ns"] + 1
        failures = check_perf_gate.check_prune(gate)
        self.assertTrue(any("selective" in f for f in failures))

    def test_broad_overhead_beyond_tolerance_fails(self):
        gate = prune_gate()
        gate["broad"]["pruned_ns"] = 2.0 * gate["broad"]["full_ns"]
        failures = check_perf_gate.check_prune(gate, prune_tolerance=1.25)
        self.assertTrue(any("broad" in f for f in failures))
        self.assertEqual(
            check_perf_gate.check_prune(gate, prune_tolerance=2.5), [])

    def test_missing_sections_fail_instead_of_passing_silently(self):
        gate = prune_gate()
        del gate["moderate"]
        failures = check_perf_gate.check_prune(gate)
        self.assertTrue(any("missing moderate" in f for f in failures))
        gate = prune_gate()
        del gate["shards"]
        failures = check_perf_gate.check_prune(gate)
        self.assertTrue(any("missing shards" in f for f in failures))


def compact_gate(**overrides):
    gate = {
        "base_rows": 60000,
        "batches": 12,
        "batch_rows": 2000,
        "pre_shards": 16,
        "post_shards": 6,
        "compact_seconds": 0.8,
        "merge_max_rel_err": 7e-14,
        "pre_ns": 6500.0,
        "post_ns": 900.0,
        "speedup": 7.2,
        "pass": True,
    }
    gate.update(overrides)
    return gate


class CompactGateTest(unittest.TestCase):
    def test_healthy_gate_passes(self):
        self.assertEqual(check_perf_gate.check_compact(compact_gate()), [])

    def test_merge_drift_fails(self):
        failures = check_perf_gate.check_compact(
            compact_gate(merge_max_rel_err=1e-6))
        self.assertTrue(any("merge_max_rel_err" in f for f in failures))

    def test_slow_compacted_store_fails(self):
        gate = compact_gate()
        gate["post_ns"] = gate["pre_ns"] + 1
        failures = check_perf_gate.check_compact(gate)
        self.assertTrue(any("not faster" in f for f in failures))

    def test_equal_latency_fails(self):
        # Compaction removed shards; "no worse" is not good enough — the
        # bar is strict, like the pruning selective bar.
        gate = compact_gate()
        gate["post_ns"] = gate["pre_ns"]
        failures = check_perf_gate.check_compact(gate)
        self.assertTrue(any("not faster" in f for f in failures))

    def test_missing_fields_fail_instead_of_passing_silently(self):
        gate = compact_gate()
        del gate["merge_max_rel_err"]
        failures = check_perf_gate.check_compact(gate)
        self.assertTrue(any("missing merge_max_rel_err" in f
                            for f in failures))
        gate = compact_gate()
        del gate["post_ns"]
        failures = check_perf_gate.check_compact(gate)
        self.assertTrue(any("missing post_ns" in f for f in failures))


def serving_gate(**overrides):
    gate = {
        "rows": 10000,
        "requests": 400,
        "latency": {"uncached_ns": 5200000.0, "p50_ns": 4800000.0,
                    "p99_ns": 9100000.0, "cached_ns": 90000.0,
                    "cache_speedup": 57.8},
        "throughput": {"qps_1": 190.0, "qps_4": 210.0, "qps_8": 215.0,
                       "batched_qps_8": 820.0, "batch_speedup": 3.81},
        "cores": 1,
        "pass": True,
    }
    gate.update(overrides)
    return gate


class ServingGateTest(unittest.TestCase):
    def test_healthy_gate_passes(self):
        self.assertEqual(check_perf_gate.check_serving(serving_gate()), [])

    def test_weak_cache_speedup_fails(self):
        gate = serving_gate()
        gate["latency"]["cache_speedup"] = 4.0
        failures = check_perf_gate.check_serving(gate)
        self.assertTrue(any("result-cache hit" in f for f in failures))

    def test_batching_below_serial_fails(self):
        gate = serving_gate()
        gate["throughput"]["batch_speedup"] = 0.8
        failures = check_perf_gate.check_serving(gate)
        self.assertTrue(any("batched throughput" in f for f in failures))

    def test_break_even_batching_passes(self):
        # The bar is >= serial: batching must never COST throughput, but
        # on one core it is allowed to merely break even.
        gate = serving_gate()
        gate["throughput"]["batch_speedup"] = 1.0
        self.assertEqual(check_perf_gate.check_serving(gate), [])

    def test_missing_sections_fail_instead_of_passing_silently(self):
        gate = serving_gate()
        del gate["latency"]["cache_speedup"]
        failures = check_perf_gate.check_serving(gate)
        self.assertTrue(any("missing latency.cache_speedup" in f
                            for f in failures))
        gate = serving_gate()
        del gate["throughput"]
        failures = check_perf_gate.check_serving(gate)
        self.assertTrue(any("missing throughput.qps_8" in f
                            for f in failures))


def join_gate(**overrides):
    gate = {
        "left_rows": 100000,
        "right_rows": 50000,
        "queries": 48,
        "fidelity": {"count_max_rel_err": 2e-6, "sum_max_rel_err": 5e-6},
        "latency": {"fused_ns": 40000.0, "exact_ns": 900000.0,
                    "speedup": 22.5},
        "pass": True,
    }
    gate.update(overrides)
    return gate


class JoinGateTest(unittest.TestCase):
    def test_healthy_gate_passes(self):
        self.assertEqual(check_perf_gate.check_join(join_gate()), [])

    def test_count_fidelity_drift_fails(self):
        gate = join_gate()
        gate["fidelity"]["count_max_rel_err"] = 1e-2
        failures = check_perf_gate.check_join(gate)
        self.assertTrue(any("drifted from brute-force ground truth" in f
                            for f in failures))
        self.assertTrue(any("count_max_rel_err" in f for f in failures))

    def test_sum_fidelity_drift_fails(self):
        gate = join_gate()
        gate["fidelity"]["sum_max_rel_err"] = 1e-3
        failures = check_perf_gate.check_join(gate)
        self.assertTrue(any("sum_max_rel_err" in f for f in failures))

    def test_fused_not_beating_exact_fails(self):
        gate = join_gate()
        gate["latency"]["fused_ns"] = gate["latency"]["exact_ns"]
        failures = check_perf_gate.check_join(gate)
        self.assertTrue(any("not faster than the exact two-sided scan" in f
                            for f in failures))

    def test_missing_fields_fail_instead_of_passing_silently(self):
        gate = join_gate()
        del gate["fidelity"]["count_max_rel_err"]
        failures = check_perf_gate.check_join(gate)
        self.assertTrue(any("missing fidelity.count_max_rel_err" in f
                            for f in failures))
        gate = join_gate()
        del gate["latency"]["fused_ns"]
        failures = check_perf_gate.check_join(gate)
        self.assertTrue(any("missing latency.fused_ns" in f
                            for f in failures))


class MainTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def write(self, name, payload):
        p = os.path.join(self.dir.name, name)
        with open(p, "w") as f:
            json.dump(payload, f)
        return p

    def test_both_gates_pass(self):
        idx = self.write("index.json", index_gate())
        shard = self.write("shard.json", shard_gate())
        self.assertEqual(check_perf_gate.main([idx, "--shard", shard]), 0)

    def test_index_gate_alone_still_works(self):
        idx = self.write("index.json", index_gate())
        self.assertEqual(check_perf_gate.main([idx]), 0)

    def test_partially_written_gate_files_fail_without_crashing(self):
        # A bench killed mid-write leaves half a JSON section; main() must
        # reach the FAIL diagnostics, not die printing the summary.
        partial_idx = index_gate()
        del partial_idx["selective"]["scan_ns"]
        idx = self.write("index.json", partial_idx)
        partial_shard = shard_gate()
        del partial_shard["build"]["sharded_seconds"]
        del partial_shard["merge"]["sum_max_rel_err"]
        shard = self.write("shard.json", partial_shard)
        self.assertEqual(check_perf_gate.main([idx, "--shard", shard]), 1)

    def test_failing_shard_gate_fails_the_run(self):
        idx = self.write("index.json", index_gate())
        bad = shard_gate()
        bad["merge"]["count_max_rel_err"] = 1.0
        shard = self.write("shard.json", bad)
        self.assertEqual(check_perf_gate.main([idx, "--shard", shard]), 1)

    def test_all_three_gates_pass(self):
        idx = self.write("index.json", index_gate())
        shard = self.write("shard.json", shard_gate())
        durability = self.write("durability.json", durability_gate())
        self.assertEqual(
            check_perf_gate.main(
                [idx, "--shard", shard, "--durability", durability]), 0)

    def test_failing_durability_gate_fails_the_run(self):
        idx = self.write("index.json", index_gate())
        bad = durability_gate()
        bad["open"]["overhead_ratio"] = 1.30
        durability = self.write("durability.json", bad)
        self.assertEqual(
            check_perf_gate.main([idx, "--durability", durability]), 1)

    def test_all_four_gates_pass(self):
        idx = self.write("index.json", index_gate())
        shard = self.write("shard.json", shard_gate())
        durability = self.write("durability.json", durability_gate())
        prune = self.write("prune.json", prune_gate())
        self.assertEqual(
            check_perf_gate.main(
                [idx, "--shard", shard, "--durability", durability,
                 "--prune", prune]), 0)

    def test_failing_prune_gate_fails_the_run(self):
        idx = self.write("index.json", index_gate())
        bad = prune_gate(identical=False)
        prune = self.write("prune.json", bad)
        self.assertEqual(check_perf_gate.main([idx, "--prune", prune]), 1)

    def test_all_five_gates_pass(self):
        idx = self.write("index.json", index_gate())
        shard = self.write("shard.json", shard_gate())
        durability = self.write("durability.json", durability_gate())
        prune = self.write("prune.json", prune_gate())
        compact = self.write("compact.json", compact_gate())
        self.assertEqual(
            check_perf_gate.main(
                [idx, "--shard", shard, "--durability", durability,
                 "--prune", prune, "--compact", compact]), 0)

    def test_failing_compact_gate_fails_the_run(self):
        idx = self.write("index.json", index_gate())
        bad = compact_gate(merge_max_rel_err=1.0)
        compact = self.write("compact.json", bad)
        self.assertEqual(check_perf_gate.main([idx, "--compact", compact]), 1)

    def test_partially_written_compact_gate_fails_without_crashing(self):
        idx = self.write("index.json", index_gate())
        partial = compact_gate()
        del partial["pre_ns"]
        del partial["merge_max_rel_err"]
        compact = self.write("compact.json", partial)
        self.assertEqual(check_perf_gate.main([idx, "--compact", compact]), 1)

    def test_all_six_gates_pass(self):
        idx = self.write("index.json", index_gate())
        shard = self.write("shard.json", shard_gate())
        durability = self.write("durability.json", durability_gate())
        prune = self.write("prune.json", prune_gate())
        compact = self.write("compact.json", compact_gate())
        serving = self.write("serving.json", serving_gate())
        self.assertEqual(
            check_perf_gate.main(
                [idx, "--shard", shard, "--durability", durability,
                 "--prune", prune, "--compact", compact,
                 "--serving", serving]), 0)

    def test_failing_serving_gate_fails_the_run(self):
        idx = self.write("index.json", index_gate())
        bad = serving_gate()
        bad["latency"]["cache_speedup"] = 2.0
        serving = self.write("serving.json", bad)
        self.assertEqual(check_perf_gate.main([idx, "--serving", serving]), 1)

    def test_partially_written_serving_gate_fails_without_crashing(self):
        idx = self.write("index.json", index_gate())
        partial = serving_gate()
        del partial["latency"]["uncached_ns"]
        del partial["throughput"]
        serving = self.write("serving.json", partial)
        self.assertEqual(check_perf_gate.main([idx, "--serving", serving]), 1)

    def test_all_seven_gates_pass(self):
        idx = self.write("index.json", index_gate())
        shard = self.write("shard.json", shard_gate())
        durability = self.write("durability.json", durability_gate())
        prune = self.write("prune.json", prune_gate())
        compact = self.write("compact.json", compact_gate())
        serving = self.write("serving.json", serving_gate())
        join = self.write("join.json", join_gate())
        self.assertEqual(
            check_perf_gate.main(
                [idx, "--shard", shard, "--durability", durability,
                 "--prune", prune, "--compact", compact,
                 "--serving", serving, "--join", join]), 0)

    def test_failing_join_gate_fails_the_run(self):
        idx = self.write("index.json", index_gate())
        bad = join_gate()
        bad["fidelity"]["count_max_rel_err"] = 1e-2
        join = self.write("join.json", bad)
        self.assertEqual(check_perf_gate.main([idx, "--join", join]), 1)

    def test_partially_written_join_gate_fails_without_crashing(self):
        idx = self.write("index.json", index_gate())
        partial = join_gate()
        del partial["latency"]
        del partial["fidelity"]["sum_max_rel_err"]
        join = self.write("join.json", partial)
        self.assertEqual(check_perf_gate.main([idx, "--join", join]), 1)

    def test_prune_tolerance_flag_is_honoured(self):
        idx = self.write("index.json", index_gate())
        loose = prune_gate()
        loose["broad"]["pruned_ns"] = 1.4 * loose["broad"]["full_ns"]
        prune = self.write("prune.json", loose)
        self.assertEqual(check_perf_gate.main([idx, "--prune", prune]), 1)
        self.assertEqual(
            check_perf_gate.main([idx, "--prune", prune,
                                  "--prune-tolerance", "1.5"]), 0)

    def test_open_tolerance_flag_is_honoured(self):
        idx = self.write("index.json", index_gate())
        loose = durability_gate()
        loose["open"]["overhead_ratio"] = 1.30
        durability = self.write("durability.json", loose)
        self.assertEqual(
            check_perf_gate.main([idx, "--durability", durability,
                                  "--open-tolerance", "1.5"]), 0)


if __name__ == "__main__":
    unittest.main()
