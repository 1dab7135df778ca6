#ifndef ENTROPYDB_ENGINE_COMPACTION_H_
#define ENTROPYDB_ENGINE_COMPACTION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/result.h"
#include "engine/source_store.h"

namespace entropydb {

/// \brief Background compaction of a v4 sharded store: merge the small
/// `shard_b*` batch shards the WAL-backed ingest path accumulates (and
/// split oversized ones) back into a bounded set of full-size shards.
///
/// The other half of the LSM-style lifecycle engine/ingest.h opened:
/// `--append` seals one small shard per batch, so a long-running ingest
/// workload degrades toward one shard per batch — every query pays a
/// per-shard routing cost and the per-shard maxent models see ever
/// thinner row slices. Compaction re-partitions all journal-backed rows
/// under the store's own partition scheme and publishes the replacement
/// shards with ONE atomic manifest flip, so readers always see exactly
/// the pre- or the post-compaction store.
///
/// Row provenance: only *batch-lineage* shards are compactable — the
/// `shard_b<i>` dirs ingest sealed and the `shard_c<g>_<j>` dirs earlier
/// compactions produced. Their rows are exactly the sealed journal
/// records [0, wal_sealed), which the driver re-parses; the journal is
/// never truncated (see ROADMAP.md), so this recovery is always
/// possible. Base shards (`shard_<s>` from the original bulk build)
/// carry no persisted raw rows and are never selected; splitting them
/// would need the original relation.
///
/// Commit protocol (the crash argument, swept op-by-op in
/// tests/engine/compaction_crash_test.cc):
///   1. Every replacement shard is built and atomically published at
///      `<dir>/shard_c<gen>_<j>` (staged `.tmp-*` sibling + rename, the
///      same protocol as every store save) — all while the live manifest
///      still points at the old shards.
///   2. ONE ShardedStore::WriteManifest swaps the shard list, records
///      the bumped compaction generation, and keeps `wal_sealed`
///      unchanged. This rename is the only commit point.
///   3. The replaced batch-lineage dirs are removed. A crash before (2)
///      leaves the old store plus unreferenced `shard_c*` orphans; a
///      crash after it leaves the new store plus unreferenced `shard_b*`
///      leftovers. ShardedStore::Load garbage-collects any `shard_*`
///      entry the manifest does not reference, so the next open is
///      always exactly one of the two states.
///
/// Fidelity: the replacement shards model the same attribute pairs as
/// shard 0 (StoreOptions::forced_pairs, the ingest rule) over the same
/// row multiset, so merged estimates agree with the pre-compaction store
/// — exactly so (within the 1e-9 merge bar) when the per-shard models
/// reproduce their shard distributions exactly, which
/// tests/engine/compaction_test.cc pins across all three partition
/// schemes.

/// True for shard directory names whose rows are journal-backed and
/// therefore compactable: ingest batch shards ("shard_b<i>") and shards
/// a previous compaction produced ("shard_c<gen>_<j>").
bool IsBatchLineageShard(const std::string& name);

/// Trigger and rebuild knobs for one compaction pass.
struct CompactionOptions {
  /// Count trigger: compact once the store holds MORE than this many
  /// `shard_b*` batch shards.
  size_t max_batch_shards = 4;
  /// Oversize trigger and output sizing: a batch-lineage shard holding
  /// more rows than this is split, and the rebuilt shard set targets
  /// ceil(total_rows / split_threshold) outputs. 0 disables splitting —
  /// all batch-lineage rows merge into a single replacement shard. The
  /// oversize trigger reads the manifest's per-shard row counts
  /// (Manifest::shard_rows), so planning never loads a shard.
  uint64_t split_threshold = 0;
  /// Run whenever at least one batch-lineage shard exists, regardless of
  /// the triggers above.
  bool force = false;
  /// Build knobs for every replacement shard. The modeled pairs are
  /// always inherited from shard 0 (forced_pairs is overwritten) and the
  /// sample seed is offset deterministically per output shard:
  /// generation g's shard j is built with
  /// `sample_seed += (g << 32) + (j << 20)`, so batch, base, and
  /// compacted shards all draw decorrelated companions and a rebuild is
  /// reproducible (tests/engine/compaction_test.cc reconstructs shards
  /// from this rule).
  StoreOptions store;
};

/// What CompactionPlanner::Plan decided, and why.
struct CompactionPlan {
  /// True when RunCompaction would rebuild shards under `opts`.
  bool triggered = false;
  /// The batch-lineage shard dirs a run would replace (manifest order).
  std::vector<std::string> candidates;
  /// Rows in the sealed journal records — the candidates' total rows.
  uint64_t total_rows = 0;
  /// Target number of replacement shards (the driver may lower it when
  /// the partition scheme cannot fill that many, e.g. a thin attribute
  /// slice or a hash layout that leaves a shard empty).
  size_t output_shards = 0;
  /// Generation the replacement shards would carry (manifest gen + 1).
  uint64_t generation = 0;
  /// Human-readable trigger (or non-trigger) explanation.
  std::string reason;
};

/// Scans a sharded store's manifest and journal — without loading any
/// shard — and reports what a compaction pass would do.
class CompactionPlanner {
 public:
  static Result<CompactionPlan> Plan(const std::string& store_dir,
                                     const CompactionOptions& opts,
                                     Env* env = Env::Default());
};

/// What one RunCompaction call did.
struct CompactionReport {
  /// False when the triggers did not fire (store untouched).
  bool ran = false;
  /// The batch-lineage shard dirs the run replaced (and removed).
  std::vector<std::string> replaced_shards;
  /// The `shard_c<gen>_<j>` dirs the run published.
  std::vector<std::string> new_shards;
  /// Journal-backed rows re-partitioned into the new shards.
  uint64_t rows = 0;
  /// The store's compaction generation after the call.
  uint64_t generation = 0;
};

/// Plans and, when triggered, executes one compaction pass on the store
/// at `store_dir` (see the file comment for the protocol). On success
/// the store answers every query the same store it replaced did; on any
/// failure the next ShardedStore::Load observes exactly the pre- or the
/// post-compaction state and garbage-collects the leftovers.
Result<CompactionReport> RunCompaction(const std::string& store_dir,
                                       const CompactionOptions& opts,
                                       Env* env = Env::Default());

}  // namespace entropydb

#endif  // ENTROPYDB_ENGINE_COMPACTION_H_
