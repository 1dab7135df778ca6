#include "engine/compaction.h"

#include <algorithm>
#include <filesystem>
#include <sstream>

#include "common/str_util.h"
#include "common/thread_pool.h"
#include "engine/ingest.h"
#include "engine/sharded_store.h"
#include "storage/partitioner.h"
#include "storage/table_builder.h"
#include "storage/wal.h"

namespace entropydb {

namespace fs = std::filesystem;

namespace {

/// Data rows of one journaled CSV batch (header excluded, blank lines
/// skipped — the exact rows ParseIngestBatch would encode), counted
/// without encoding anything: the planner must stay cheap.
uint64_t CsvRowCount(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  uint64_t rows = 0;
  bool header = true;
  while (std::getline(in, line)) {
    if (header) {
      header = false;
      continue;
    }
    if (!StripWhitespace(line).empty()) ++rows;
  }
  return rows;
}

/// The planning rule, shared by Plan and RunCompaction so the driver
/// executes exactly what the planner reports.
Result<CompactionPlan> PlanFromState(const std::string& dir,
                                     const ShardedStore::Manifest& m,
                                     const WalContents& wal,
                                     const CompactionOptions& opts) {
  CompactionPlan plan;
  plan.generation = m.compaction_gen + 1;
  if (m.wal_sealed > wal.records.size()) {
    return Status::Corruption(
        "manifest claims " + std::to_string(m.wal_sealed) +
        " sealed batches but the journal holds only " +
        std::to_string(wal.records.size()) + " in " + dir);
  }
  size_t batch_shards = 0;
  for (const std::string& d : m.shard_dirs) {
    if (!IsBatchLineageShard(d)) continue;
    plan.candidates.push_back(d);
    if (d.rfind("shard_b", 0) == 0) ++batch_shards;
  }
  if (plan.candidates.empty()) {
    plan.reason = "no batch-lineage shards to compact";
    return plan;
  }
  for (uint64_t i = 0; i < m.wal_sealed; ++i) {
    plan.total_rows += CsvRowCount(wal.records[i]);
  }
  if (plan.total_rows == 0) {
    // Batch-lineage shards exist but the journal backs no rows: nothing
    // to rebuild them from, so leave the store alone rather than commit
    // an empty replacement.
    plan.reason = "batch-lineage shards but no sealed journal rows";
    return plan;
  }

  std::string oversized;
  if (opts.split_threshold > 0) {
    for (size_t i = 0; i < m.shard_dirs.size(); ++i) {
      if (IsBatchLineageShard(m.shard_dirs[i]) &&
          m.shard_rows[i] > opts.split_threshold) {
        oversized = m.shard_dirs[i];
        break;
      }
    }
  }
  if (batch_shards > opts.max_batch_shards) {
    plan.triggered = true;
    plan.reason = std::to_string(batch_shards) + " batch shards exceed " +
                  std::to_string(opts.max_batch_shards);
  } else if (!oversized.empty()) {
    plan.triggered = true;
    plan.reason = oversized + " exceeds the split threshold of " +
                  std::to_string(opts.split_threshold) + " rows";
  } else if (opts.force) {
    plan.triggered = true;
    plan.reason = "forced";
  } else {
    plan.reason = "below the batch-shard and split thresholds";
  }

  plan.output_shards =
      opts.split_threshold > 0
          ? static_cast<size_t>((plan.total_rows + opts.split_threshold - 1) /
                                opts.split_threshold)
          : 1;
  plan.output_shards = std::max<size_t>(
      1, std::min<uint64_t>(plan.output_shards, plan.total_rows));
  return plan;
}

}  // namespace

bool IsBatchLineageShard(const std::string& name) {
  return name.rfind("shard_b", 0) == 0 || name.rfind("shard_c", 0) == 0;
}

Result<CompactionPlan> CompactionPlanner::Plan(const std::string& store_dir,
                                               const CompactionOptions& opts,
                                               Env* env) {
  ASSIGN_OR_RETURN(
      ShardedStore::Manifest m,
      ShardedStore::ReadManifest(store_dir, env,
                                 opts.store.summary.verify_checksums));
  ASSIGN_OR_RETURN(
      WalContents wal,
      ReadWal(env, (fs::path(store_dir) / kIngestWalName).string()));
  return PlanFromState(store_dir, m, wal, opts);
}

Result<CompactionReport> RunCompaction(const std::string& store_dir,
                                       const CompactionOptions& opts,
                                       Env* env) {
  ASSIGN_OR_RETURN(
      ShardedStore::Manifest m,
      ShardedStore::ReadManifest(store_dir, env,
                                 opts.store.summary.verify_checksums));
  ASSIGN_OR_RETURN(
      WalContents wal,
      ReadWal(env, (fs::path(store_dir) / kIngestWalName).string()));
  ASSIGN_OR_RETURN(CompactionPlan plan,
                   PlanFromState(store_dir, m, wal, opts));
  CompactionReport report;
  report.generation = m.compaction_gen;
  if (!plan.triggered) return report;

  // Shard 0 donates the modeled pairs and the pinned domains, exactly as
  // it does for every ingest seal (base shards always precede
  // batch-lineage ones in the manifest).
  ASSIGN_OR_RETURN(
      std::shared_ptr<SourceStore> shard0,
      SourceStore::Load((fs::path(store_dir) / m.shard_dirs.front()).string(),
                        opts.store.summary, env));
  if (!shard0->has_domains()) {
    return Status::FailedPrecondition(
        "store carries no persisted domains; compaction cannot re-encode "
        "journal rows in " + store_dir);
  }

  // Recover every batch-lineage row by re-parsing the sealed journal
  // records in order — deterministic, so round-robin re-partitioning is
  // reproducible and content-based schemes see the exact row multiset.
  std::vector<AttributeSpec> specs(shard0->num_attributes());
  for (AttrId a = 0; a < shard0->num_attributes(); ++a) {
    specs[a].name = shard0->attr_names()[a];
    specs[a].type = shard0->domains()[a].is_categorical()
                        ? AttributeType::kCategorical
                        : AttributeType::kNumeric;
    specs[a].buckets = shard0->domains()[a].size();
  }
  TableBuilder builder(Schema{std::move(specs)});
  for (AttrId a = 0; a < shard0->num_attributes(); ++a) {
    builder.SetDomain(a, shard0->domains()[a]);
  }
  std::vector<Code> codes(shard0->num_attributes());
  for (uint64_t i = 0; i < m.wal_sealed; ++i) {
    ASSIGN_OR_RETURN(std::shared_ptr<Table> batch,
                     ParseIngestBatch(*shard0, wal.records[i], i));
    for (size_t r = 0; r < batch->num_rows(); ++r) {
      for (AttrId a = 0; a < batch->num_attributes(); ++a) {
        codes[a] = batch->at(r, a);
      }
      builder.AppendEncodedRow(codes);
    }
  }
  ASSIGN_OR_RETURN(std::shared_ptr<Table> rows, builder.Finish());

  // Re-partition under the store's own scheme. The planned shard count
  // is a target: a scheme can leave a shard empty (a hash layout at this
  // row count, or an attribute slice no row lands in), and a shard needs
  // rows to fit a model to — fall back toward fewer, fuller shards.
  std::vector<std::shared_ptr<Table>> parts;
  for (size_t k = std::min<size_t>(plan.output_shards, rows->num_rows());;
       --k) {
    PartitionOptions popts;
    popts.num_shards = k;
    popts.scheme = m.scheme;
    popts.partition_attr = m.partition_attr;
    auto attempt = TablePartitioner::Partition(*rows, popts);
    if (attempt.ok()) {
      parts = std::move(*attempt);
      break;
    }
    if (k <= 1) return attempt.status();
  }

  // Build and atomically publish every replacement shard while the live
  // manifest still points at the old ones. Builds are independent, so
  // they fan out; each inner Save stages and publishes its own dir.
  StoreOptions build_opts = opts.store;
  build_opts.forced_pairs = InheritedPairs(*shard0);
  build_opts.use_budget_advisor = false;
  const uint64_t gen = plan.generation;
  std::vector<std::string> new_dirs(parts.size());
  std::vector<Status> statuses(parts.size(), Status::OK());
  ParallelFor(parts.size(), 2, [&](size_t j) {
    StoreOptions per_shard = build_opts;
    // The documented seed rule (see CompactionOptions::store): offsets
    // decorrelate companion draws across generations and output shards
    // and make any rebuild reproducible.
    per_shard.sample_seed +=
        (gen << 32) + (static_cast<uint64_t>(j) << 20);
    auto built = SourceStore::Build(*parts[j], per_shard);
    if (!built.ok()) {
      statuses[j] = built.status();
      return;
    }
    new_dirs[j] =
        "shard_c" + std::to_string(gen) + "_" + std::to_string(j);
    const std::string shard_dir =
        (fs::path(store_dir) / new_dirs[j]).string();
    statuses[j] = (*built)->Save(shard_dir, env);
  });
  for (const Status& s : statuses) {
    if (!s.ok()) return s;
  }

  // The commit point: ONE manifest write swaps every replaced shard for
  // the new set, bumps the generation, and keeps wal_sealed unchanged —
  // a crash on either side of this rename leaves exactly the old or the
  // new store.
  ShardedStore::Manifest next;
  next.scheme = m.scheme;
  next.partition_attr = m.partition_attr;
  next.wal_sealed = m.wal_sealed;
  next.compaction_gen = gen;
  for (size_t i = 0; i < m.shard_dirs.size(); ++i) {
    if (IsBatchLineageShard(m.shard_dirs[i])) continue;
    next.shard_dirs.push_back(m.shard_dirs[i]);
    next.shard_rows.push_back(m.shard_rows[i]);
  }
  for (size_t j = 0; j < parts.size(); ++j) {
    next.shard_dirs.push_back(new_dirs[j]);
    next.shard_rows.push_back(parts[j]->num_rows());
  }
  RETURN_NOT_OK(ShardedStore::WriteManifest(store_dir, next, env));

  // GC the replaced dirs. The flip above already committed, so a crash
  // from here on still reopens as the post-compaction store — the next
  // Load sweeps whatever this pass left behind.
  for (const std::string& d : plan.candidates) {
    RETURN_NOT_OK(env->RemoveAll((fs::path(store_dir) / d).string()));
  }
  RETURN_NOT_OK(env->SyncDir(store_dir));

  report.ran = true;
  report.replaced_shards = plan.candidates;
  report.new_shards = std::move(new_dirs);
  report.rows = rows->num_rows();
  report.generation = gen;
  return report;
}

}  // namespace entropydb
