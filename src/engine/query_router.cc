#include "engine/query_router.h"

namespace entropydb {

std::vector<size_t> QueryRouter::CoveringEntries(
    const std::vector<uint8_t>& constrained, size_t* covered) const {
  size_t best = 0;
  std::vector<size_t> out;
  for (size_t k = 0; k < store_->size(); ++k) {
    size_t cover = 0;
    for (const ScoredPair& p : store_->entry(k).pairs) {
      if (constrained[p.a] && constrained[p.b]) ++cover;
    }
    if (cover > best) {
      best = cover;
      out.clear();
    }
    if (cover == best && cover > 0) out.push_back(k);
  }
  *covered = best;
  if (out.empty()) out.push_back(store_->widest());
  return out;
}

size_t QueryRouter::RouteEntry(
    const CountingQuery& q, const std::vector<AttrId>& extra_attrs,
    RouteDecision* decision,
    std::optional<QueryEstimate>* filter_count) const {
  if (decision != nullptr) *decision = RouteDecision{};
  if (q.num_attributes() != store_->num_attributes()) {
    // Arity errors surface from the chosen summary's own validation.
    return store_->widest();
  }
  std::vector<uint8_t> constrained = q.ConstrainedMask();
  for (AttrId a : extra_attrs) {
    if (a < constrained.size()) constrained[a] = 1;
  }
  size_t covered = 0;
  std::vector<size_t> candidates = CoveringEntries(constrained, &covered);
  size_t index = candidates.front();
  if (candidates.size() > 1) {
    // Tie-break like the counting path does, using the filter count's
    // variance as the routing objective (the aggregate itself would cost
    // a batched derivative pass per candidate).
    double best_var = 0.0;
    bool have = false;
    for (size_t k : candidates) {
      auto est = store_->summary(k).Answer(q);
      if (!est.ok()) continue;
      if (!have || est->variance < best_var) {
        best_var = est->variance;
        index = k;
        have = true;
        if (filter_count != nullptr) *filter_count = *est;
      }
    }
  }
  if (decision != nullptr) {
    decision->index = index;
    decision->covered_pairs = covered;
    decision->candidates = candidates.size();
    decision->fallback = covered == 0;
  }
  return index;
}

Result<bool> QueryRouter::BestSample(const CountingQuery& q, double bound,
                                     size_t* index, QueryEstimate* est) const {
  bool have = false;
  for (size_t s = 0; s < store_->num_samples(); ++s) {
    // Only a variance strictly below both the rival summary's and the
    // best companion's so far can change the outcome, so the walk may
    // stop once it reaches the smaller of the two.
    const double limit = have && est->variance < bound ? est->variance : bound;
    auto cand = store_->sample_source(s).AnswerUntil(q, limit);
    if (!cand.ok()) {
      // An arity mismatch means this companion simply cannot serve the
      // query — an expected probe miss, skip it. Anything else (a corrupt
      // companion failing at answer time) must surface, not silently
      // shrink the candidate set.
      if (cand.status().IsInvalidArgument()) continue;
      return cand.status();
    }
    if (!have || cand->variance < est->variance) {
      *est = *cand;
      *index = s;
      have = true;
    }
  }
  return have;
}

Result<bool> QueryRouter::HybridChallenge(const CountingQuery& q,
                                          const QueryEstimate& summary_cnt,
                                          RouteDecision* decision,
                                          size_t* sample_index,
                                          QueryEstimate* sample_est) const {
  if (decision != nullptr) {
    decision->summary_variance = summary_cnt.variance;
    decision->sample_variance = std::numeric_limits<double>::infinity();
    decision->from_sample = false;
  }
  size_t index = 0;
  QueryEstimate est;
  ASSIGN_OR_RETURN(const bool have,
                   BestSample(q, summary_cnt.variance, &index, &est));
  if (!have) return false;
  const bool from_sample = est.variance < summary_cnt.variance;
  if (decision != nullptr) {
    decision->sample_variance = est.variance;
    decision->from_sample = from_sample;
    decision->sample_index = index;
  }
  if (sample_index != nullptr) *sample_index = index;
  if (sample_est != nullptr) *sample_est = est;
  return from_sample;
}

Result<QueryEstimate> QueryRouter::Answer(const CountingQuery& q,
                                          RouteDecision* decision) const {
  if (q.num_attributes() != store_->num_attributes()) {
    return Status::InvalidArgument("query arity does not match the store");
  }
  // Stages 1-2: coverage, then the lowest-variance tied candidate. The
  // estimate is exactly the chosen summary's own answer — the tie-break's
  // when one ran.
  std::optional<QueryEstimate> routed;
  const size_t index = RouteEntry(q, {}, decision, &routed);
  QueryEstimate best_est;
  if (routed.has_value()) {
    best_est = *routed;
  } else {
    ASSIGN_OR_RETURN(best_est, store_->summary(index).Answer(q));
  }

  // Stage 3 (hybrid): the best sample companion challenges the summary
  // winner; strictly lower expected variance takes the query.
  QueryEstimate sample_est;
  size_t sample_index = 0;
  ASSIGN_OR_RETURN(
      const bool from_sample,
      HybridChallenge(q, best_est, decision, &sample_index, &sample_est));
  if (decision != nullptr) {
    decision->expected_variance =
        from_sample ? sample_est.variance : best_est.variance;
  }
  return from_sample ? sample_est : best_est;
}

Result<QueryResult> QueryRouter::Answer(const AggregateQuery& q,
                                        RouteDecision* decision) const {
  RouteDecision dec;
  switch (q.kind) {
    case AggregateKind::kCount: {
      // COUNT runs the counting pipeline verbatim, so the aggregate
      // surface is bitwise the counting answer (and AnswerAll's entry)
      // for the same filter.
      ASSIGN_OR_RETURN(QueryEstimate est, Answer(q.where, &dec));
      QueryResult out;
      out.estimate = est;
      out.count = est;
      out.has_moments = true;
      out.route = dec;
      if (decision != nullptr) *decision = dec;
      return out;
    }
    case AggregateKind::kSum: {
      std::optional<QueryEstimate> routed_cnt;
      const size_t index = RouteEntry(q.where, {q.agg_attr}, &dec, &routed_cnt);
      // Answer the summary first: its count leg is bitwise
      // Answer(where) — the tie-break's when that ran, else from the
      // SUM's own masked evaluation — and it is the stage-3 objective.
      ASSIGN_OR_RETURN(QueryResult out,
                       store_->summary(index).Answer(q, routed_cnt));
      if (store_->num_samples() > 0 &&
          q.where.num_attributes() == store_->num_attributes()) {
        size_t sample_index = 0;
        ASSIGN_OR_RETURN(const bool from_sample,
                         HybridChallenge(q.where, out.count, &dec,
                                         &sample_index, nullptr));
        if (from_sample) {
          ASSIGN_OR_RETURN(out, store_->sample_source(sample_index).Answer(q));
        }
      }
      dec.expected_variance = out.estimate.variance;
      out.route = dec;
      if (decision != nullptr) *decision = dec;
      return out;
    }
    case AggregateKind::kAvg: {
      // Summary-only: samples have no batched ratio path. The tie-break's
      // filter count, when it ran, is the ratio's denominator.
      std::optional<QueryEstimate> routed_cnt;
      const size_t index = RouteEntry(q.where, {q.agg_attr}, &dec, &routed_cnt);
      ASSIGN_OR_RETURN(QueryResult out,
                       store_->summary(index).Answer(q, routed_cnt));
      dec.expected_variance = out.estimate.variance;
      out.route = dec;
      if (decision != nullptr) *decision = dec;
      return out;
    }
    default:
      return Status::NotSupported(
          std::string("aggregate kind ") + AggregateKindName(q.kind) +
          " is derived at the engine facade, not routed over one store");
  }
}

Result<std::vector<QueryEstimate>> QueryRouter::AnswerGroupByAttribute(
    AttrId a, const CountingQuery& base, RouteDecision* decision) const {
  return store_->summary(RouteEntry(base, {a}, decision))
      .AnswerGroupByAttribute(a, base);
}

Result<std::map<std::vector<Code>, QueryEstimate>> QueryRouter::AnswerGroupBy(
    const std::vector<AttrId>& attrs,
    const std::vector<std::vector<Code>>& keys, const CountingQuery& base,
    RouteDecision* decision) const {
  return store_->summary(RouteEntry(base, attrs, decision))
      .AnswerGroupBy(attrs, keys, base);
}

}  // namespace entropydb
