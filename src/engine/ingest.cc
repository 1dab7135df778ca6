#include "engine/ingest.h"

#include <cstdio>
#include <filesystem>
#include <sstream>

#include "engine/sharded_store.h"
#include "storage/csv.h"
#include "storage/wal.h"

namespace entropydb {

namespace fs = std::filesystem;

namespace {

Schema SchemaFor(const std::vector<std::string>& names,
                 const std::vector<Domain>& domains) {
  std::vector<AttributeSpec> specs(names.size());
  for (size_t a = 0; a < names.size(); ++a) {
    specs[a].name = names[a];
    specs[a].type = domains[a].is_categorical() ? AttributeType::kCategorical
                                                : AttributeType::kNumeric;
    specs[a].buckets = domains[a].size();
  }
  return Schema{std::move(specs)};
}

/// Seals journal record `batch_index` into shard "shard_b<i>" and flips
/// the manifest. Idempotent under replay: the shard name is a function of
/// the batch index, so a rebuilt shard atomically replaces any
/// half-published orphan from a crashed previous attempt.
Status SealBatch(const std::string& dir, ShardedStore::Manifest* m,
                 uint64_t batch_index, const std::string& payload,
                 const SourceStore& shard0, StoreOptions opts, Env* env) {
  // Every shard must model the SAME pairs (routing metadata is uniform
  // across shards; see ShardedStore::Build) — force shard 0's choice.
  opts.forced_pairs = InheritedPairs(shard0);
  opts.use_budget_advisor = false;
  // Decorrelate companion draws across batches (same rule the sharded
  // build applies across shards).
  opts.sample_seed += batch_index << 20;
  ASSIGN_OR_RETURN(std::shared_ptr<Table> table,
                   ParseIngestBatch(shard0, payload, batch_index));
  ASSIGN_OR_RETURN(std::shared_ptr<SourceStore> shard,
                   SourceStore::Build(*table, opts));
  const std::string shard_name = "shard_b" + std::to_string(batch_index);
  const std::string shard_dir = (fs::path(dir) / shard_name).string();
  RETURN_NOT_OK(shard->Save(shard_dir, env));
  m->shard_dirs.push_back(shard_name);
  m->shard_rows.push_back(table->num_rows());
  m->wal_sealed = batch_index + 1;
  // The commit point: shard list and sealed cursor flip together.
  return ShardedStore::WriteManifest(dir, *m, env);
}

/// Loads shard 0 — the donor of the modeled pairs and the pinned domains
/// every batch encodes against.
Result<std::shared_ptr<SourceStore>> LoadShard0(
    const std::string& dir, const ShardedStore::Manifest& m,
    const StoreOptions& opts, Env* env) {
  ASSIGN_OR_RETURN(
      std::shared_ptr<SourceStore> shard0,
      SourceStore::Load((fs::path(dir) / m.shard_dirs.front()).string(),
                        opts.summary, env));
  if (!shard0->has_domains()) {
    return Status::FailedPrecondition(
        "store carries no persisted domains; ingest cannot encode rows in " +
        dir);
  }
  return shard0;
}

Status CheckSealCursor(const std::string& dir,
                       const ShardedStore::Manifest& m,
                       const std::vector<std::string>& records) {
  if (m.wal_sealed > records.size()) {
    return Status::Corruption(
        "manifest claims " + std::to_string(m.wal_sealed) +
        " sealed batches but the journal holds only " +
        std::to_string(records.size()) + " in " + dir);
  }
  return Status::OK();
}

/// Seals records [m->wal_sealed, records.size()); returns how many.
Result<uint64_t> SealPending(const std::string& dir,
                             ShardedStore::Manifest* m,
                             const std::vector<std::string>& records,
                             const SourceStore& shard0,
                             const StoreOptions& opts, Env* env) {
  uint64_t sealed = 0;
  for (uint64_t i = m->wal_sealed; i < records.size(); ++i) {
    RETURN_NOT_OK(SealBatch(dir, m, i, records[i], shard0, opts, env));
    ++sealed;
  }
  return sealed;
}

}  // namespace

Result<std::shared_ptr<Table>> ParseIngestBatch(const SourceStore& donor,
                                                const std::string& text,
                                                uint64_t batch_index) {
  const std::string where = "ingest batch " + std::to_string(batch_index);
  std::istringstream in(text);
  ASSIGN_OR_RETURN(
      std::shared_ptr<Table> table,
      ParseCsv(SchemaFor(donor.attr_names(), donor.domains()), in, where,
               &donor.domains()));
  if (table->num_rows() == 0) {
    return Status::InvalidArgument(where + " has no rows");
  }
  return table;
}

std::vector<ScoredPair> InheritedPairs(const SourceStore& donor) {
  std::vector<ScoredPair> pairs;
  for (size_t k = 0; k < donor.size(); ++k) {
    for (const ScoredPair& p : donor.entry(k).pairs) pairs.push_back(p);
  }
  return pairs;
}

Result<IngestReport> RecoverPending(const std::string& store_dir,
                                    StoreOptions opts, Env* env) {
  ASSIGN_OR_RETURN(ShardedStore::Manifest m,
                   ShardedStore::ReadManifest(store_dir, env,
                                              opts.summary.verify_checksums));
  ASSIGN_OR_RETURN(
      WalContents wal,
      ReadWal(env, (fs::path(store_dir) / kIngestWalName).string()));
  RETURN_NOT_OK(CheckSealCursor(store_dir, m, wal.records));
  IngestReport report;
  if (m.wal_sealed == wal.records.size()) return report;  // nothing pending
  ASSIGN_OR_RETURN(std::shared_ptr<SourceStore> shard0,
                   LoadShard0(store_dir, m, opts, env));
  ASSIGN_OR_RETURN(report.sealed, SealPending(store_dir, &m, wal.records,
                                              *shard0, opts, env));
  report.recovered = report.sealed;
  return report;
}

Result<IngestReport> AppendBatch(const std::string& store_dir,
                                 const std::string& csv_text,
                                 StoreOptions opts, Env* env) {
  ASSIGN_OR_RETURN(ShardedStore::Manifest m,
                   ShardedStore::ReadManifest(store_dir, env,
                                              opts.summary.verify_checksums));
  const std::string wal_path =
      (fs::path(store_dir) / kIngestWalName).string();
  ASSIGN_OR_RETURN(WalContents wal, ReadWal(env, wal_path));
  RETURN_NOT_OK(CheckSealCursor(store_dir, m, wal.records));
  ASSIGN_OR_RETURN(std::shared_ptr<SourceStore> shard0,
                   LoadShard0(store_dir, m, opts, env));
  // Validate BEFORE journaling: a malformed batch is rejected here, not
  // turned into a journal record every future replay chokes on.
  RETURN_NOT_OK(
      ParseIngestBatch(*shard0, csv_text, wal.records.size()).status());
  if (wal.truncated_tail) {
    // A crashed append left a partial record behind the last good one.
    // Drop it BEFORE appending — new bytes after torn ones would be
    // unreachable to every future replay.
    std::fprintf(stderr,
                 "entropydb: warning: truncating torn ingest journal tail "
                 "in %s at %llu bytes\n",
                 store_dir.c_str(),
                 static_cast<unsigned long long>(wal.valid_bytes));
    RETURN_NOT_OK(env->Truncate(wal_path, wal.valid_bytes));
  }

  IngestReport report;
  // Journal next: once AddRecord + Sync return, the rows survive any
  // crash and a later call replays them.
  ASSIGN_OR_RETURN(std::unique_ptr<WalWriter> writer,
                   WalWriter::Open(env, wal_path));
  RETURN_NOT_OK(writer->AddRecord(csv_text));
  RETURN_NOT_OK(writer->Sync());
  RETURN_NOT_OK(writer->Close());
  report.journaled = 1;

  const uint64_t pending = wal.records.size() - m.wal_sealed;
  wal.records.push_back(csv_text);
  ASSIGN_OR_RETURN(report.sealed, SealPending(store_dir, &m, wal.records,
                                              *shard0, opts, env));
  report.recovered = report.sealed > 0 ? pending : 0;
  return report;
}

}  // namespace entropydb
