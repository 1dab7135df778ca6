#ifndef ENTROPYDB_MAXENT_ANSWERER_H_
#define ENTROPYDB_MAXENT_ANSWERER_H_

#include <map>
#include <optional>
#include <vector>

#include "common/result.h"
#include "maxent/polynomial.h"
#include "maxent/variable_registry.h"
#include "maxent/workspace_pool.h"
#include "query/aggregate.h"
#include "query/counting_query.h"

namespace entropydb {

/// \brief Answers linear counting queries on a solved MaxEnt model via the
/// optimized evaluation of Sec 4.2: zero the excluded 1-D variables,
/// evaluate P once, scale by n / P.
///
/// Construction warms a WorkspacePool: the unmasked evaluation and
/// per-group factor products are computed once and shared (immutably) by
/// every pooled workspace; each query then claims a free workspace with one
/// atomic exchange, rebuilds prefix sums only for the attributes it
/// actually constrains, and re-walks only the touched connected components.
/// Query entry points are safe to call concurrently and scale with cores —
/// no internal mutex; see maxent/workspace_pool.h. Because all pool members
/// share one factor cache, estimates are bitwise-stable regardless of
/// thread interleaving.
class QueryAnswerer {
 public:
  /// `state` must already be solved; the unmasked P and the per-group
  /// factor caches are computed here, once.
  QueryAnswerer(const VariableRegistry& reg, const CompressedPolynomial& poly,
                const ModelState& state);

  /// E[<q, I>] (and variance) for a conjunctive counting query — the
  /// COUNT(*) primitive every aggregate builds on.
  Result<QueryEstimate> Answer(const CountingQuery& q) const;

  /// The unified aggregate dispatcher for the kinds a single model can
  /// answer: COUNT, SUM, AVG. Every result carries the SUM/COUNT moment
  /// legs plus their covariance under the model's multinomial law over
  /// the aggregated attribute's cells (X_v ~ Multinomial(n, p_v)):
  ///
  ///   E[S]      = n sum_v w_v p_v
  ///   Var S     = n (sum_v w_v^2 p_v - (sum_v w_v p_v)^2)
  ///   Var C     = n P (1 - P),   P = sum over matching v of p_v
  ///   Cov(S, C) = n (sum_v w_v p_v) (1 - P)
  ///
  /// AVG's headline estimate is the ratio S/C with the delta-method
  /// variance Var(S/C) ~= (Var S - 2 R Cov + R^2 Var C) / C^2 — and
  /// because the legs and the covariance are SURFACED, not just consumed,
  /// a sharded store can merge per-shard legs additively and apply the
  /// same delta method once across shards without dropping the cross term
  /// (docs/ESTIMATORS.md "Cross-shard merging").
  ///
  /// The count leg is bitwise Answer(q.where). When `q.where` leaves
  /// `q.agg_attr` unconstrained it comes from the per-value pass's own
  /// masked evaluation, whose relaxed mask is then the filter's mask;
  /// otherwise from a second masked evaluation. `filter_count`, when set,
  /// must be this model's own Answer(q.where) — a router that already
  /// evaluated the filter count hands it in, and SUM/AVG then skip that
  /// evaluation. The answer is bitwise the same either way.
  ///
  /// QUANTILE/TOPK/JOIN kinds are derived at the engine facade from
  /// group-by marginals, not here — kNotSupported.
  Result<QueryResult> Answer(
      const AggregateQuery& q,
      const std::optional<QueryEstimate>& filter_count = std::nullopt) const;

  /// Point-group-by: for each listed code combination of `attrs`, the
  /// estimate of COUNT(*) at that point with `base` as the residual filter.
  /// Mirrors the paper's SELECT A.., COUNT(*) GROUP BY templates. Each
  /// key is answered as Answer(base with every attrs[i] pinned to
  /// key[i]), bitwise, on one workspace that reuses the previous key's
  /// residue: a key rebuilds only its changed pins' prefix sums and walks
  /// only the groups they stab in the components they touch.
  Result<std::map<std::vector<Code>, QueryEstimate>> AnswerGroupBy(
      const std::vector<AttrId>& attrs,
      const std::vector<std::vector<Code>>& keys,
      const CountingQuery& base) const;

  /// Whole-attribute group-by: E[COUNT(*) | base AND A_a = v] for every
  /// value v of attribute `a`, computed in ONE masked evaluation plus one
  /// batched derivative pass (by multilinearity,
  /// E[count(base AND A_a = v)] = n * alpha_{a,v} * dP[mask]/dalpha_{a,v}
  /// / P). Far cheaper than |D_a| point queries; this is how the paper's
  /// "GROUP BY A ORDER BY cnt LIMIT k" template should be evaluated.
  Result<std::vector<QueryEstimate>> AnswerGroupByAttribute(
      AttrId a, const CountingQuery& base) const;

  /// Unmasked P (the normalization constant's base).
  double FullPolynomialValue() const { return full_value_; }

 private:
  /// The COUNT estimate of a masked value: n p and n p (1 - p) for
  /// p = masked / P clamped to [0, 1]. Every count this class reports
  /// goes through it, so equal masked values give bitwise-equal counts.
  QueryEstimate CountOf(double masked) const;

  /// AnswerGroupByAttribute, also handing back the relaxed mask's masked
  /// value through `masked`.
  Result<std::vector<QueryEstimate>> GroupByAttribute(
      AttrId a, const CountingQuery& base, double* masked) const;

  const VariableRegistry& reg_;
  const CompressedPolynomial& poly_;
  const ModelState& state_;
  /// Per-thread evaluation workspaces sharing one warmed factor cache
  /// (mutable: queries are logically const).
  mutable WorkspacePool pool_;
  double full_value_;
};

}  // namespace entropydb

#endif  // ENTROPYDB_MAXENT_ANSWERER_H_
