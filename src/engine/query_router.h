#ifndef ENTROPYDB_ENGINE_QUERY_ROUTER_H_
#define ENTROPYDB_ENGINE_QUERY_ROUTER_H_

#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/result.h"
#include "engine/source_store.h"
#include "maxent/answerer.h"
#include "query/aggregate.h"
#include "query/counting_query.h"

namespace entropydb {

/// \brief Routes each query to the store source — maxent summary or
/// weighted sample — expected to answer it best. Batched workloads fan
/// out one level up, in ShardedStore::AnswerAll.
///
/// Routing rule (see docs/ESTIMATORS.md and docs/ARCHITECTURE.md):
///  1. Coverage: an entry covers a query through every modeled attribute
///     pair whose BOTH attributes the query constrains — those are the
///     correlations the estimate actually exercises. Keep the summaries
///     with maximal (non-zero) coverage.
///  2. Summary variance: among tied candidates, answer from each and keep
///     the estimate with the lowest Binomial variance n p (1 - p). A
///     summary that models the queried correlation concentrates the mass
///     estimate (small p for rare combinations), so lower variance tracks
///     the better-informed model. When no entry covers any pair (1-D-only
///     territory, where every summary shares the same exact marginals),
///     the widest summary is the candidate.
///  3. Hybrid: answer from every sample companion as well and compare the
///     best sample's Horvitz-Thompson variance against the stage-2
///     winner's; the overall lowest variance serves the query. A
///     companion's walk stops once its running variance reaches the
///     stage-2 winner's or the best companion's so far: its terms are
///     never negative, so it could no longer win (BestSample). A sample
///     that saw no matching row reports the finite miss floor
///     w_max (w_max - 1) (never a confident zero), which routes rare
///     slices the sample missed back to a summary.
///
/// The unified Answer(AggregateQuery) runs the same pipeline per kind:
/// COUNT routes the full three stages (and is bitwise the counting-path
/// answer), SUM routes stages 1-2 on the filter PLUS the aggregated
/// attribute, answers the summary, and challenges hybrid on that
/// answer's count leg (the filter count's variance, the shared
/// objective), AVG routes summary-only (samples have no batched ratio
/// path). The group-bys route stages 1-2 on the filter plus the
/// grouped attributes and answer from that summary. QUANTILE/TOPK/JOIN
/// derive at the engine facade from group-by marginals — kNotSupported
/// here.
///
/// The routed answer IS the chosen source's own answer — bit-for-bit what
/// that summary's QueryAnswerer or that sample's SampleEstimator returns —
/// so routing never perturbs estimates. Stateless over an immutable store:
/// all entry points are safe to call concurrently.
class QueryRouter {
 public:
  explicit QueryRouter(std::shared_ptr<const SourceStore> store)
      : store_(std::move(store)) {}

  const SourceStore& store() const { return *store_; }

  /// Max-coverage candidate entries for a constrained-attribute set
  /// (`constrained[a]` != 0 when attribute `a` carries a predicate).
  /// `covered` gets the pair count each returned candidate achieves; 0
  /// means nothing covers and the result is just the widest entry.
  std::vector<size_t> CoveringEntries(const std::vector<uint8_t>& constrained,
                                      size_t* covered) const;

  /// Stages 1-2 for aggregate routing: the serving summary ENTRY for a
  /// filter whose effective constrained set also includes `extra_attrs`
  /// (aggregate / group-by attributes — the per-value split exercises
  /// their correlations too). Coverage ties break on the filter COUNT's
  /// variance (running the aggregate itself per candidate would cost a
  /// batched derivative pass each); when the tie-break evaluated the
  /// winner's filter count it is handed back through `filter_count` so
  /// hybrid aggregate routing does not pay the masked evaluation twice.
  /// Resets and fills the decision's stage-1/2 fields. An arity-mismatched
  /// query routes to the widest entry — the summary's own validation then
  /// surfaces the error when answering.
  size_t RouteEntry(const CountingQuery& q,
                    const std::vector<AttrId>& extra_attrs,
                    RouteDecision* decision,
                    std::optional<QueryEstimate>* filter_count = nullptr) const;

  /// Stage-3 helper: the sample companion with the lowest expected COUNT
  /// variance for `q` (first wins ties, keeping routing deterministic),
  /// challenging a rival of variance `bound`. Each companion's walk
  /// stops once its running variance reaches the smaller of `bound` and
  /// the best variance so far (SampleEstimator::AnswerUntil), since it
  /// can then no longer be strictly lower. So when the best companion's
  /// variance is below `bound`, `index` and `est` are exactly what full
  /// walks give; otherwise `est` is the smallest variance any companion
  /// reached — a lower bound on the best full walk's, never below
  /// `bound` — and its expectation is partial. Returns false — leaving
  /// the outputs untouched — when the store holds no samples or none
  /// matches the query's arity (an arity mismatch is an expected probe
  /// miss, not a fault). Any OTHER per-sample error — e.g. a corrupt
  /// companion surfacing at answer time — propagates as a Status instead
  /// of silently dropping the sample from routing.
  Result<bool> BestSample(const CountingQuery& q, double bound, size_t* index,
                          QueryEstimate* est) const;

  /// Runs stage 3 in full: the best sample challenges the stage-2 summary
  /// winner's filter-count estimate `summary_cnt` (BestSample bounded by
  /// its variance). Fills the decision's hybrid fields (when non-null)
  /// and the winner outputs, and returns true when the sample takes the
  /// query (strictly lower variance); the winner outputs are exact only
  /// then. Non-arity sample errors propagate (see BestSample). The ONE
  /// comparison both COUNT and aggregate routing share — change the rule
  /// here and both paths move together.
  Result<bool> HybridChallenge(const CountingQuery& q,
                               const QueryEstimate& summary_cnt,
                               RouteDecision* decision, size_t* sample_index,
                               QueryEstimate* sample_est) const;

  /// Routes and answers one counting query across all sources — the
  /// primitive ShardedStore::AnswerAll fans out on and the COUNT
  /// aggregate shares.
  Result<QueryEstimate> Answer(const CountingQuery& q,
                               RouteDecision* decision = nullptr) const;

  /// The unified aggregate surface (COUNT/SUM/AVG; see the class comment
  /// for the per-kind pipeline). The result's `route` always carries the
  /// decision; `decision` (optional) receives the same value.
  Result<QueryResult> Answer(const AggregateQuery& q,
                             RouteDecision* decision = nullptr) const;

  /// Whole-attribute group-by (one batched derivative pass) from the
  /// summary RouteEntry picks for `base` plus `a`; `decision` gets that
  /// routing. Summary-only: samples have no batched-derivative path.
  Result<std::vector<QueryEstimate>> AnswerGroupByAttribute(
      AttrId a, const CountingQuery& base,
      RouteDecision* decision = nullptr) const;
  /// Point group-by over explicit keys, routed like AnswerGroupByAttribute
  /// with every grouped attribute constrained.
  Result<std::map<std::vector<Code>, QueryEstimate>> AnswerGroupBy(
      const std::vector<AttrId>& attrs,
      const std::vector<std::vector<Code>>& keys, const CountingQuery& base,
      RouteDecision* decision = nullptr) const;

 private:
  std::shared_ptr<const SourceStore> store_;
};

}  // namespace entropydb

#endif  // ENTROPYDB_ENGINE_QUERY_ROUTER_H_
