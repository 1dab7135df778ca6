#ifndef ENTROPYDB_ENGINE_ENGINE_H_
#define ENTROPYDB_ENGINE_ENGINE_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/sharded_store.h"
#include "maxent/summary.h"
#include "query/aggregate.h"

namespace entropydb {

/// \brief Monotonic engine-level counters, snapshot by
/// EntropyEngine::stats().
///
/// Feeds the server's STATS command (docs/SERVING.md). Increments are
/// relaxed atomics on the answer paths, so concurrent answering never
/// serializes on bookkeeping; a snapshot is therefore approximate across
/// in-flight queries, which is all an operations counter needs.
struct EngineStats {
  /// Single-query Answer calls (any aggregate kind, joins, group-bys).
  uint64_t queries = 0;
  /// AnswerAll invocations (one per BATCH frame with cache misses: the
  /// server answers a frame's misses with one AnswerAll).
  uint64_t batches = 0;
  /// Queries answered inside those batches.
  uint64_t batched_queries = 0;
};

/// \brief The serving facade: one query surface over one ShardedStore —
/// S row-shards, each a SourceStore of summaries plus sample companions
/// answered by its own QueryRouter, merged additively (see
/// engine/sharded_store.h). Every engine has that one shape: a single
/// summary is a one-entry store and a monolithic store is one shard, so
/// no method branches on where the engine came from.
///
/// Tools, examples, and benchmarks talk to this instead of hand-wiring a
/// summary, so switching a deployment from one summary file to a
/// multi-source store directory is a flag change:
///
///   auto engine = EntropyEngine::Open(path);   // file or store directory
///   auto res = (*engine)->Answer(AggregateQuery::Count(query));
///
/// COUNT/SUM/AVG fan out to every shard (the best source is picked PER
/// SHARD by that shard's router) and merge the per-shard moments; point
/// estimates, variances, and the SUM/COUNT covariance are additive across
/// disjoint row partitions, so the merged AVG keeps the full delta-method
/// variance.
///
/// The ONE query entry point is Answer(AggregateQuery): COUNT and SUM
/// route across summaries AND samples per QueryRouter's hybrid rules
/// (coverage -> summary variance -> summary-vs-sample variance; see
/// docs/ESTIMATORS.md); AVG and the group-bys are summary-only (samples
/// have no batched-derivative path); QUANTILE and TOPK derive here at the
/// facade from the merged group-by marginal (maxent/quantile.h). The JOIN
/// kinds fuse TWO engines' models on a shared attribute — see AnswerJoin
/// and maxent/join_fusion.h.
///
/// Every answer path reports its RouteDecision by one rule: the pruned /
/// scanned shard counters always, plus the answering shard's own routing
/// decision when exactly one shard answered (so a monolithic engine
/// reports its store's routing verbatim). All entry points are safe to
/// call concurrently; per-summary throughput scales on the answerer's
/// workspace pool.
class EntropyEngine {
 public:
  /// Wraps a non-null summary as a one-entry, one-shard store.
  static std::shared_ptr<EntropyEngine> FromSummary(
      std::shared_ptr<EntropySummary> summary);
  /// Wraps a non-null store as a one-shard ShardedStore.
  static std::shared_ptr<EntropyEngine> FromStore(
      std::shared_ptr<SourceStore> store);
  /// Serves a non-null sharded store.
  static std::shared_ptr<EntropyEngine> FromSharded(
      std::shared_ptr<ShardedStore> sharded);
  /// Opens a persisted engine: a directory loads as a SourceStore
  /// (MANIFEST v4 mono) or a ShardedStore (MANIFEST v4 sharded), a file
  /// as a single summary (format v2) — each wrapped into the one shape,
  /// and every artifact must carry its checksum footer. A
  /// *versioned root* (a directory holding a CURRENT pointer — see
  /// storage/version_set.h) resolves to its current version's store
  /// directory first, so callers point at the root and transparently read
  /// whatever version is live; to time-travel, open a retained
  /// "root/v<id>" directly. Checksums are verified unless
  /// `opts.verify_checksums` is off; all I/O goes through `env`. A
  /// sharded store reuses every shard of `share` whose files are the
  /// ones it would load (ShardedStore::Load): a server passes the store
  /// of the engine it has live, so opening the next version loads only
  /// the shards that version added.
  static Result<std::shared_ptr<EntropyEngine>> Open(
      const std::string& path, SummaryOptions opts = {},
      Env* env = Env::Default(), const ShardedStore* share = nullptr);

  /// Number of row-shards (1 for engines over a summary or a monolithic
  /// store).
  size_t num_shards() const { return sharded_->num_shards(); }
  /// Number of summary sources, summed across shards.
  size_t num_summaries() const;
  /// Number of sample sources, summed across shards.
  size_t num_samples() const;
  /// The store this engine serves; never null.
  const ShardedStore* sharded() const { return sharded_.get(); }

  /// Attribute names shared by every source.
  const std::vector<std::string>& attr_names() const {
    return sharded_->attr_names();
  }
  /// Active-domain descriptors shared by every source (may be empty for
  /// summaries built from a bare registry).
  const std::vector<Domain>& domains() const { return sharded_->domains(); }
  bool has_domains() const { return sharded_->has_domains(); }
  /// Relation cardinality n, the total across shards.
  double n() const { return sharded_->n(); }
  /// Relation arity m.
  size_t num_attributes() const { return sharded_->num_attributes(); }

  /// COUNT(*) — the routed counting primitive, one query at a time
  /// (bitwise the Answer(AggregateQuery::Count(q)) estimate and AnswerAll's
  /// entry for q).
  Result<QueryEstimate> Answer(const CountingQuery& q,
                               RouteDecision* decision = nullptr) const;

  /// The unified aggregate surface: COUNT/SUM/AVG routed per the class
  /// comment, QUANTILE/TOPK derived from the merged group-by marginal.
  /// JOIN kinds need a right-side engine — use AnswerJoin; here they are
  /// kInvalidArgument. The result's `route` always carries the decision;
  /// `decision` (optional) receives the same value, and `per_shard`
  /// (optional) every shard's own decision, slot s for shard s.
  Result<QueryResult> Answer(
      const AggregateQuery& q, RouteDecision* decision = nullptr,
      std::vector<RouteDecision>* per_shard = nullptr) const;

  /// Fused-join estimates (kJoinCount / kJoinSum): this engine serves the
  /// LEFT relation (q.where, q.join_attr, and for JOIN_SUM q.agg_attr /
  /// q.weights), `right` the right relation (q.right_where,
  /// q.right_join_attr). Each side contributes its filtered join-attribute
  /// marginal from its own routed model; the fusion is the first-order
  /// delta estimate of maxent/join_fusion.h. The two join attributes'
  /// domains must agree in size (codes are matched positionally — fuse
  /// relations encoded against the same dictionary). The decision is the
  /// left side's.
  Result<QueryResult> AnswerJoin(const AggregateQuery& q,
                                 const EntropyEngine& right,
                                 RouteDecision* decision = nullptr) const;

  /// Batched COUNT(*) workload, fanned across the thread pool; slot i
  /// matches qs[i] and equals the serial Answer answer.
  Result<std::vector<QueryEstimate>> AnswerAll(
      const std::vector<CountingQuery>& qs,
      std::vector<RouteDecision>* decisions = nullptr) const;

  /// Point group-by over explicit keys — summary-routed per shard, merged
  /// additively per key.
  Result<std::map<std::vector<Code>, QueryEstimate>> AnswerGroupBy(
      const std::vector<AttrId>& attrs,
      const std::vector<std::vector<Code>>& keys, const CountingQuery& base,
      RouteDecision* decision = nullptr) const;

  /// Snapshot of the engine-level counters (see EngineStats).
  EngineStats stats() const;

 private:
  explicit EntropyEngine(std::shared_ptr<ShardedStore> sharded)
      : sharded_(std::move(sharded)) {}

  std::shared_ptr<ShardedStore> sharded_;

  // Answer methods are const; the counters are observability, not state.
  mutable std::atomic<uint64_t> queries_{0};
  mutable std::atomic<uint64_t> batches_{0};
  mutable std::atomic<uint64_t> batched_queries_{0};
};

}  // namespace entropydb

#endif  // ENTROPYDB_ENGINE_ENGINE_H_
