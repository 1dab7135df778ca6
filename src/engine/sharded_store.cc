#include "engine/sharded_store.h"

#include <cmath>
#include <filesystem>
#include <mutex>
#include <sstream>

#include "common/thread_pool.h"

namespace entropydb {

namespace fs = std::filesystem;

namespace {

constexpr char kManifestV4[] = "ENTROPYDB_STORE_V4";

std::string ManifestPayload(const ShardedStore::Manifest& m) {
  std::ostringstream out;
  out << kManifestV4 << " sharded\n";
  out << "scheme " << PartitionSpecToken({m.scheme, m.partition_attr})
      << "\n";
  out << "wal_sealed " << m.wal_sealed << "\n";
  out << "shards " << m.shard_dirs.size() << "\n";
  for (const std::string& d : m.shard_dirs) out << "shard " << d << "\n";
  // The compaction generation (engine/compaction.h) is written only once
  // a compaction has run; readers default it to 0.
  if (m.compaction_gen > 0) out << "gen " << m.compaction_gen << "\n";
  out << "shardrows " << m.shard_rows.size() << "\n";
  for (uint64_t r : m.shard_rows) out << "shardrow " << r << "\n";
  return out.str();
}

/// The identity ShardedStore::Load keys shard reuse on: the shard's
/// manifest name, then one "<file> <payload bytes> <crc32c>" line per
/// file of its directory. An inode would not do: once retention GC frees
/// a retired version's files, a later rebuild can publish a shard of the
/// same name with other rows on a reused inode. The payloads read on the
/// way go to `*payloads`, by file name, so a shard that is not reused
/// loads from them instead of reading its files again.
Result<std::string> ShardIdentity(
    Env* env, const std::string& shard_dir, const std::string& name,
    bool verify, std::map<std::string, std::string>* payloads) {
  ASSIGN_OR_RETURN(std::vector<std::string> files, env->List(shard_dir));
  std::string id = name + "\n";
  for (const std::string& file : files) {
    uint32_t crc = 0;
    ASSIGN_OR_RETURN(
        std::string payload,
        ReadChecksummedFile(env, (fs::path(shard_dir) / file).string(),
                            verify, &crc));
    id += file + " " + std::to_string(payload.size()) + " " +
          std::to_string(crc) + "\n";
    (*payloads)[file] = std::move(payload);
  }
  return id;
}

/// Accumulates one shard's estimate into the merged answer. Disjoint row
/// partitions with independently fit models: expectations and variances
/// are both additive.
void MergeInto(QueryEstimate* merged, const QueryEstimate& shard) {
  merged->expectation += shard.expectation;
  merged->variance += shard.variance;
}

}  // namespace

ShardedStore::ShardedStore(std::vector<std::shared_ptr<SourceStore>> shards,
                           PartitionScheme scheme, AttrId partition_attr)
    : shards_(std::move(shards)),
      identities_(shards_.size()),
      scheme_(scheme),
      partition_attr_(partition_attr) {
  routers_.reserve(shards_.size());
  zone_maps_.reserve(shards_.size());
  for (const auto& s : shards_) {
    routers_.emplace_back(s);
    // Every summary of a shard carries the exact 1-D statistics of the
    // shard's rows, so the first one already says which codes occur.
    zone_maps_.push_back(std::make_shared<const ZoneMap>(ZoneMap::FromCounts(
        s->entry(0).summary->registry().one_d_targets())));
    total_n_ += s->n();
  }
}

Result<std::shared_ptr<ShardedStore>> ShardedStore::FromShards(
    std::vector<std::shared_ptr<SourceStore>> shards, PartitionScheme scheme,
    AttrId partition_attr) {
  if (shards.empty()) {
    return Status::InvalidArgument("a sharded store needs at least one shard");
  }
  // Null checks must run before anything dereferences a shard (binding a
  // reference through a null front() would already be UB).
  for (const auto& s : shards) {
    if (s == nullptr) {
      return Status::InvalidArgument("sharded store with a null shard");
    }
  }
  const SourceStore& ref = *shards.front();
  for (const auto& s : shards) {
    if (s->num_attributes() != ref.num_attributes()) {
      return Status::InvalidArgument(
          "shards disagree on the relation arity");
    }
    for (AttrId a = 0; a < ref.num_attributes(); ++a) {
      // Shards of one relation share the base active domains verbatim; a
      // same-arity store of a different relation must not merge in (its
      // codes would be position-compatible but mean different values).
      if (s->entry(0).summary->registry().domain_size(a) !=
          ref.entry(0).summary->registry().domain_size(a)) {
        return Status::InvalidArgument(
            "shards disagree on the domain of attribute " +
            std::to_string(a));
      }
    }
  }
  if (scheme == PartitionScheme::kAttribute &&
      partition_attr >= ref.num_attributes()) {
    return Status::InvalidArgument(
        "partition attribute " + std::to_string(partition_attr) +
        " out of range");
  }
  return std::shared_ptr<ShardedStore>(
      new ShardedStore(std::move(shards), scheme, partition_attr));
}

Result<std::shared_ptr<ShardedStore>> ShardedStore::Build(const Table& table,
                                                          ShardedOptions opts) {
  PartitionOptions popts;
  popts.num_shards = opts.num_shards;
  popts.scheme = opts.scheme;
  popts.hash_seed = opts.hash_seed;
  popts.partition_attr = opts.partition_attr;
  ASSIGN_OR_RETURN(std::vector<std::shared_ptr<Table>> shards,
                   TablePartitioner::Partition(table, popts));

  // Resolve pairs ONCE on the full relation (the same step a monolithic
  // Build runs), then force the choice into every shard: shards must
  // agree on the modeled pairs (routing metadata) and repeating the
  // O(rows x m^2) ranking per shard would waste exactly the scan the
  // partitioning is trying to split.
  StoreOptions shard_opts = opts.store;
  ASSIGN_OR_RETURN(shard_opts.forced_pairs,
                   SourceStore::ResolvePairs(table, shard_opts));
  shard_opts.use_budget_advisor = false;

  // Independent per-shard builds fan out across the pool; each build's own
  // internal ParallelFor calls degrade inline on worker threads. Outputs
  // land in disjoint slots, so the result is deterministic.
  std::vector<std::shared_ptr<SourceStore>> built(shards.size());
  std::vector<Status> statuses(shards.size(), Status::OK());
  ParallelFor(shards.size(), 2, [&](size_t s) {
    StoreOptions per_shard = shard_opts;
    // Decorrelate companion draws across shards: a shared seed would make
    // every shard pick the "same" pseudo-random rows of its partition.
    per_shard.sample_seed += static_cast<uint64_t>(s) << 20;
    auto store = SourceStore::Build(*shards[s], per_shard);
    if (!store.ok()) {
      statuses[s] = store.status();
      return;
    }
    built[s] = *store;
  });
  for (const Status& s : statuses) {
    if (!s.ok()) return s;
  }
  return FromShards(std::move(built), opts.scheme, opts.partition_attr);
}

bool ShardedStore::Prune(size_t s, const CountingQuery& q,
                         RouteDecision* dec) const {
  AttrId attr = 0;
  if (!prune_ || zone_maps_[s]->MightMatch(q, &attr)) {
    return false;
  }
  if (dec != nullptr) {
    dec->pruned = true;
    dec->pruned_attr = attr;
  }
  return true;
}

template <typename AnswerFn>
Status ShardedStore::ForEachShard(const CountingQuery& where,
                                  std::vector<RouteDecision>* per_shard,
                                  AnswerFn&& answer) const {
  if (per_shard != nullptr) {
    per_shard->assign(shards_.size(), RouteDecision{});
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    RouteDecision* dec = per_shard != nullptr ? &(*per_shard)[s] : nullptr;
    // A shard whose zone map rules the query out would answer exact zeros
    // (see storage/zone_map.h) — skip it; every merge is unchanged.
    if (Prune(s, where, dec)) continue;
    RETURN_NOT_OK(answer(routers_[s], dec));
  }
  return Status::OK();
}

Result<QueryEstimate> ShardedStore::Answer(
    const CountingQuery& q, std::vector<RouteDecision>* per_shard) const {
  QueryEstimate merged;
  auto answer = [&](const QueryRouter& router, RouteDecision* dec) -> Status {
    ASSIGN_OR_RETURN(QueryEstimate est, router.Answer(q, dec));
    MergeInto(&merged, est);
    return Status::OK();
  };
  RETURN_NOT_OK(ForEachShard(q, per_shard, answer));
  return merged;
}

Result<QueryResult> ShardedStore::Answer(
    const AggregateQuery& q, std::vector<RouteDecision>* per_shard) const {
  if (q.kind != AggregateKind::kCount && q.kind != AggregateKind::kSum &&
      q.kind != AggregateKind::kAvg) {
    return Status::NotSupported(
        std::string("aggregate kind ") + AggregateKindName(q.kind) +
        " is derived at the engine facade, not merged across shards");
  }
  // Disjoint row partitions with independently fit models: the estimates,
  // BOTH moment legs, and the SUM/COUNT covariance are all additive (a
  // pruned shard contributes the exact zeros it would have answered).
  QueryResult merged;
  merged.has_moments = true;
  auto answer = [&](const QueryRouter& router, RouteDecision* dec) -> Status {
    ASSIGN_OR_RETURN(QueryResult part, router.Answer(q, dec));
    MergeInto(&merged.estimate, part.estimate);
    MergeInto(&merged.sum, part.sum);
    MergeInto(&merged.count, part.count);
    merged.sum_count_cov += part.sum_count_cov;
    return Status::OK();
  };
  RETURN_NOT_OK(ForEachShard(q.where, per_shard, answer));
  if (q.kind == AggregateKind::kAvg) {
    // ONE delta method over the MERGED moments — the covariance term the
    // per-shard results surfaced stays in the ratio variance, so the
    // cross-shard AVG matches the unsharded formula instead of the old
    // covariance-free approximation (docs/ESTIMATORS.md).
    merged.estimate = QueryEstimate{};
    if (merged.count.expectation > 0.0) {
      const double c = merged.count.expectation;
      const double r = merged.sum.expectation / c;
      merged.estimate.expectation = r;
      merged.estimate.variance = std::max(
          0.0, (merged.sum.variance - 2.0 * r * merged.sum_count_cov +
                r * r * merged.count.variance) /
                   (c * c));
    }
  }
  return merged;
}

Result<std::vector<QueryEstimate>> ShardedStore::AnswerGroupByAttribute(
    AttrId a, const CountingQuery& base,
    std::vector<RouteDecision>* per_shard) const {
  if (a >= num_attributes()) {
    return Status::OutOfRange("group-by attribute out of range");
  }
  // Pre-size to the group-by width so a shard pruned on the base filter
  // can be skipped: an impossible base makes every per-value cell of that
  // shard an exact {0, 0}.
  std::vector<QueryEstimate> merged(
      shards_.front()->entry(0).summary->registry().domain_size(a));
  auto answer = [&](const QueryRouter& router, RouteDecision* dec) -> Status {
    ASSIGN_OR_RETURN(std::vector<QueryEstimate> part,
                     router.AnswerGroupByAttribute(a, base, dec));
    if (merged.size() != part.size()) {
      return Status::Internal("shards disagree on group-by width");
    }
    for (size_t v = 0; v < part.size(); ++v) MergeInto(&merged[v], part[v]);
    return Status::OK();
  };
  RETURN_NOT_OK(ForEachShard(base, per_shard, answer));
  return merged;
}

Result<std::map<std::vector<Code>, QueryEstimate>> ShardedStore::AnswerGroupBy(
    const std::vector<AttrId>& attrs,
    const std::vector<std::vector<Code>>& keys, const CountingQuery& base,
    std::vector<RouteDecision>* per_shard) const {
  std::map<std::vector<Code>, QueryEstimate> merged;
  // Every requested key gets a slot up front, so the result keeps its
  // shape even when pruning skips every shard (malformed keys still fail,
  // exactly as the per-shard answerers would make them).
  for (const auto& key : keys) {
    if (key.size() != attrs.size()) {
      return Status::InvalidArgument("group-by key arity mismatch");
    }
    merged[key];
  }
  auto answer = [&](const QueryRouter& router, RouteDecision* dec) -> Status {
    ASSIGN_OR_RETURN(auto part, router.AnswerGroupBy(attrs, keys, base, dec));
    for (const auto& [key, est] : part) MergeInto(&merged[key], est);
    return Status::OK();
  };
  RETURN_NOT_OK(ForEachShard(base, per_shard, answer));
  return merged;
}

Result<std::vector<QueryEstimate>> ShardedStore::AnswerAll(
    const std::vector<CountingQuery>& qs,
    std::vector<std::vector<RouteDecision>>* per_shard) const {
  const size_t nq = qs.size();
  const size_t ns = shards_.size();
  // The full shards x queries grid fans out flat: cell (i, s) is shard s
  // answering query i into its own slot, so the fan-out saturates the pool
  // even when one of the two dimensions is small.
  std::vector<QueryEstimate> cells(nq * ns);
  std::vector<RouteDecision> cell_decisions(
      per_shard != nullptr ? nq * ns : 0);
  std::vector<Status> statuses(nq * ns, Status::OK());
  ParallelFor(nq * ns, 2, [&](size_t flat) {
    const size_t i = flat / ns;
    const size_t s = flat % ns;
    // Pruned cells keep their default-zero estimate — the exact value the
    // shard would have answered — so the serial merge below is unchanged.
    RouteDecision* dec = per_shard != nullptr ? &cell_decisions[flat] : nullptr;
    if (Prune(s, qs[i], dec)) return;
    auto est = routers_[s].Answer(qs[i], dec);
    if (!est.ok()) {
      statuses[flat] = est.status();
      return;
    }
    cells[flat] = *est;
  });
  for (const Status& s : statuses) {
    if (!s.ok()) return s;
  }
  // Serial merge in shard order: bitwise the same sum the one-query path
  // computes.
  std::vector<QueryEstimate> out(nq);
  for (size_t i = 0; i < nq; ++i) {
    for (size_t s = 0; s < ns; ++s) MergeInto(&out[i], cells[i * ns + s]);
  }
  if (per_shard != nullptr) {
    per_shard->assign(nq, std::vector<RouteDecision>(ns));
    for (size_t i = 0; i < nq; ++i) {
      for (size_t s = 0; s < ns; ++s) {
        (*per_shard)[i][s] = cell_decisions[i * ns + s];
      }
    }
  }
  return out;
}

Result<ShardedStore::Manifest> ShardedStore::ReadManifest(
    const std::string& dir, Env* env, bool verify_checksums) {
  const std::string path = (fs::path(dir) / "MANIFEST").string();
  ASSIGN_OR_RETURN(std::string payload,
                   ReadChecksummedFile(env, path, verify_checksums));
  std::istringstream in(payload);
  std::string token;
  if (!(in >> token) || token != kManifestV4) {
    return Status::Corruption("not a v4 store manifest in " + dir);
  }
  std::string kind;
  if (!(in >> kind) || kind != "sharded") {
    return Status::InvalidArgument("not a sharded store manifest in " + dir);
  }
  Manifest m;
  std::string scheme_token;
  if (!(in >> token >> scheme_token) || token != "scheme") {
    return Status::Corruption("bad scheme record in " + dir);
  }
  ASSIGN_OR_RETURN(PartitionSpec spec, ParsePartitionSpec(scheme_token));
  m.scheme = spec.scheme;
  m.partition_attr = spec.attr;
  if (!(in >> token >> m.wal_sealed) || token != "wal_sealed") {
    return Status::Corruption("bad wal_sealed record in " + dir);
  }
  size_t ns = 0;
  if (!(in >> token) || token != "shards") {
    return Status::Corruption("bad shards record in " + dir);
  }
  RETURN_NOT_OK(ReadCount(in, kMinNumberBytes, path, "shards", &ns));
  if (ns == 0) return Status::Corruption("bad shards record in " + dir);
  m.shard_dirs.resize(ns);
  for (size_t s = 0; s < ns; ++s) {
    if (!(in >> token >> m.shard_dirs[s]) || token != "shard") {
      return Status::Corruption("bad shard record in " + dir);
    }
  }
  // Trailing sections: the compaction generation (only once a compaction
  // has run) and the per-shard row counts the compaction planner triggers
  // on (always).
  while (in >> token) {
    if (token == "gen") {
      if (!(in >> m.compaction_gen)) {
        return Status::Corruption("bad gen record in " + dir);
      }
    } else if (token == "shardrows") {
      size_t nr = 0;
      if (!m.shard_rows.empty()) {
        return Status::Corruption("bad shardrows record in " + dir);
      }
      RETURN_NOT_OK(ReadCount(in, kMinNumberBytes, path, "shardrows", &nr));
      if (nr != ns) return Status::Corruption("bad shardrows record in " + dir);
      m.shard_rows.resize(nr);
      for (size_t r = 0; r < nr; ++r) {
        if (!(in >> token >> m.shard_rows[r]) || token != "shardrow") {
          return Status::Corruption("bad shardrow record in " + dir);
        }
      }
    } else {
      return Status::Corruption("unknown manifest record '" + token +
                                "' in " + dir);
    }
  }
  if (m.shard_rows.size() != ns) {
    return Status::Corruption("missing shardrows record in " + dir);
  }
  return m;
}

Status ShardedStore::WriteManifest(const std::string& dir, const Manifest& m,
                                   Env* env) {
  // Stage under a fixed tmp name (a stale one from a crashed flip is
  // simply overwritten — Load never reads it), sync, then rename over the
  // live MANIFEST and sync the directory: the shard list and the
  // wal_sealed cursor flip together.
  if (m.shard_rows.size() != m.shard_dirs.size()) {
    return Status::InvalidArgument(
        "manifest needs one row count per shard in " + dir);
  }
  const std::string tmp = (fs::path(dir) / "MANIFEST.tmp").string();
  const std::string final_path = (fs::path(dir) / "MANIFEST").string();
  RETURN_NOT_OK(WriteChecksummedFile(env, tmp, ManifestPayload(m)));
  RETURN_NOT_OK(env->Rename(tmp, final_path));
  return env->SyncDir(dir);
}

Status ShardedStore::Save(const std::string& dir, Env* env) const {
  // Stage the WHOLE tree (shards + manifest), publish once: re-saving over
  // an existing store can never expose a manifest pointing at a mix of new
  // and stale shard data. Note Save persists the loaded sources only —
  // it writes no ingest journal (wal_sealed 0); recover any unsealed WAL
  // records (engine/ingest.h) before re-saving a store wholesale.
  const std::string stage = StagingDirFor(dir);
  Status s = [&]() -> Status {
    RETURN_NOT_OK(env->CreateDirs(stage));
    // Shard subtrees touch disjoint paths, so they fan out; inside the
    // stage nothing is being published, so shards skip their own staging.
    std::vector<Status> statuses(shards_.size(), Status::OK());
    ParallelFor(shards_.size(), 2, [&](size_t i) {
      const std::string shard_dir =
          (fs::path(stage) / ("shard_" + std::to_string(i))).string();
      statuses[i] = shards_[i]->SaveContents(shard_dir, env);
    });
    for (const Status& st : statuses) {
      if (!st.ok()) return st;
    }
    Manifest m;
    m.scheme = scheme_;
    m.partition_attr = partition_attr_;
    for (size_t i = 0; i < shards_.size(); ++i) {
      m.shard_dirs.push_back("shard_" + std::to_string(i));
      m.shard_rows.push_back(static_cast<uint64_t>(shards_[i]->n()));
    }
    RETURN_NOT_OK(WriteChecksummedFile(
        env, (fs::path(stage) / "MANIFEST").string(), ManifestPayload(m)));
    return env->SyncDir(stage);
  }();
  if (s.ok()) s = env->PublishDir(stage, dir);
  if (!s.ok()) env->RemoveAll(stage).ok();  // best-effort cleanup
  return s;
}

bool ShardedStore::IsShardedDir(const std::string& dir, Env* env) {
  std::string contents;
  if (!env->ReadFile((fs::path(dir) / "MANIFEST").string(), &contents)
           .ok()) {
    return false;
  }
  std::istringstream in(contents);
  std::string token, kind;
  return (in >> token >> kind) && token == kManifestV4 && kind == "sharded";
}

Result<std::shared_ptr<ShardedStore>> ShardedStore::Load(
    const std::string& dir, SummaryOptions opts, Env* env,
    const ShardedStore* share) {
  RemoveStaleStagingDirs(env, dir);
  ASSIGN_OR_RETURN(Manifest m,
                   ReadManifest(dir, env, opts.verify_checksums));
  // GC every `shard_*` entry the manifest does not reference: a crashed
  // ingest seal or compaction strands half-built shards (and their
  // `shard_*.tmp-*` staging siblings), a crash between a compaction's
  // manifest flip and its cleanup leaves the replaced ones, and a crashed
  // WriteManifest leaks its pre-rename tmp file. Orphan rows are
  // journal-backed, so removal never loses data. Shares SweepStaleEntries
  // with the version GC (storage/version_set.cc) so the two staleness
  // rules can't drift.
  SweepStaleEntries(env, dir, {"shard_", "MANIFEST.tmp"},
                    /*keep=*/m.shard_dirs);
  std::map<std::string, std::shared_ptr<SourceStore>> shareable;
  if (share != nullptr) {
    for (size_t s = 0; s < share->num_shards(); ++s) {
      shareable.emplace(share->identities_[s], share->shards_[s]);
    }
  }
  const size_t ns = m.shard_dirs.size();
  // Shard loads are independent (each is a full store load, itself
  // parallel inside), so fan out across shards too.
  std::vector<std::shared_ptr<SourceStore>> shards(ns);
  std::vector<std::string> identities(ns);
  std::vector<Status> statuses(ns, Status::OK());
  ParallelFor(ns, 2, [&](size_t s) {
    const std::string shard_dir = (fs::path(dir) / m.shard_dirs[s]).string();
    statuses[s] = [&]() -> Status {
      std::map<std::string, std::string> payloads;
      ASSIGN_OR_RETURN(identities[s],
                       ShardIdentity(env, shard_dir, m.shard_dirs[s],
                                     opts.verify_checksums, &payloads));
      const auto it = shareable.find(identities[s]);
      if (it != shareable.end()) {
        shards[s] = it->second;
        return Status::OK();
      }
      // The sweep above already removed this shard's staging siblings.
      // Each payload moves out of the map as its file loads, so it is
      // freed once parsed; the loads may run on several threads.
      std::mutex payloads_mu;
      ASSIGN_OR_RETURN(
          shards[s],
          SourceStore::LoadFrom(
              shard_dir, opts,
              [&](const std::string& file) -> Result<std::string> {
                std::lock_guard<std::mutex> lock(payloads_mu);
                auto node = payloads.extract(file);
                if (node.empty()) {
                  return Status::IOError("cannot read " + file + " in " +
                                         shard_dir +
                                         ": missing, or named twice");
                }
                return std::move(node.mapped());
              }));
      return Status::OK();
    }();
  });
  for (const Status& s : statuses) {
    if (!s.ok()) return s;
  }
  auto store = FromShards(std::move(shards), m.scheme, m.partition_attr);
  if (!store.ok()) {
    return Status::Corruption("inconsistent sharded store in " + dir + ": " +
                              store.status().message());
  }
  (*store)->identities_ = std::move(identities);
  (*store)->compaction_gen_ = m.compaction_gen;
  return store;
}

}  // namespace entropydb
