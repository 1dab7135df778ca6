#include "maxent/answerer.h"

#include <algorithm>
#include <cmath>

namespace entropydb {

QueryAnswerer::QueryAnswerer(const VariableRegistry& reg,
                             const CompressedPolynomial& poly,
                             const ModelState& state)
    : reg_(reg), poly_(poly), state_(state), pool_(poly, state) {
  full_value_ = pool_.full_value();
}

Result<QueryEstimate> QueryAnswerer::Answer(const CountingQuery& q) const {
  if (q.num_attributes() != reg_.num_attributes()) {
    return Status::InvalidArgument("query arity does not match the summary");
  }
  if (!(full_value_ > 0.0)) {
    return Status::FailedPrecondition("summary is not solved (P <= 0)");
  }
  WorkspacePool::Lease lease = pool_.Acquire();
  return CountOf(poly_.MaskedEvaluate(state_, q, lease.get()).value);
}

QueryEstimate QueryAnswerer::CountOf(double masked) const {
  const double p = std::clamp(masked / full_value_, 0.0, 1.0);
  QueryEstimate est;
  est.expectation = reg_.n() * p;
  est.variance = reg_.n() * p * (1.0 - p);
  return est;
}

Result<QueryResult> QueryAnswerer::Answer(
    const AggregateQuery& q,
    const std::optional<QueryEstimate>& filter_count) const {
  QueryResult out;
  if (q.kind == AggregateKind::kCount) {
    ASSIGN_OR_RETURN(out.estimate, Answer(q.where));
    // The count leg repeats the estimate so moment merging is uniform
    // across kinds; the (absent) sum leg and covariance stay zero.
    out.count = out.estimate;
    out.has_moments = true;
    out.route.expected_variance = out.estimate.variance;
    out.route.summary_variance = out.estimate.variance;
    return out;
  }
  if (q.kind != AggregateKind::kSum && q.kind != AggregateKind::kAvg) {
    return Status::NotSupported(
        std::string("aggregate kind ") + AggregateKindName(q.kind) +
        " is derived at the engine facade, not answered by one model");
  }
  const AttrId a = q.agg_attr;
  if (a >= reg_.num_attributes()) {
    return Status::OutOfRange("aggregate attribute out of range");
  }
  if (q.weights.size() != reg_.domain_size(a)) {
    return Status::InvalidArgument(
        "weight vector must have one entry per value of the attribute");
  }
  // One batched pass for the per-value counts. The matching total C is
  // Answer(where), so the ratio's denominator (and the count leg) is the
  // same estimate a plain COUNT reports. When `where` leaves `a`
  // unconstrained, the pass's relaxed mask IS the filter's mask, so its
  // masked evaluation gives that estimate bitwise, without a second one.
  double masked = 0.0;
  ASSIGN_OR_RETURN(std::vector<QueryEstimate> counts,
                   GroupByAttribute(a, q.where, &masked));
  if (filter_count.has_value()) {
    out.count = *filter_count;
  } else if (q.where.predicate(a).is_any()) {
    out.count = CountOf(masked);
  } else {
    ASSIGN_OR_RETURN(out.count, Answer(q.where));
  }

  // Multinomial cell moments over the matching values:
  //   Var S  = n (sum w^2 p - (sum w p)^2)
  //   Var C  = n P (1 - P)
  //   Cov    = n (sum w p) (1 - P)
  const double n = reg_.n();
  double swp = 0.0, sw2p = 0.0;
  for (Code v = 0; v < q.weights.size(); ++v) {
    const double pv = counts[v].expectation / n;
    out.sum.expectation += q.weights[v] * counts[v].expectation;
    swp += q.weights[v] * pv;
    sw2p += q.weights[v] * q.weights[v] * pv;
  }
  out.sum.variance = std::max(0.0, n * (sw2p - swp * swp));
  const double big_p = std::clamp(out.count.expectation / n, 0.0, 1.0);
  const double mean_wp = out.sum.expectation / n;  // sum_v w_v p_v
  out.sum_count_cov = n * mean_wp * (1.0 - big_p);
  out.has_moments = true;

  if (q.kind == AggregateKind::kSum) {
    out.estimate = out.sum;
  } else if (out.count.expectation > 0.0) {
    // Delta method on R = S/C with the moments above — the covariance is
    // kept, not assumed away.
    const double c = out.count.expectation;
    const double r = out.sum.expectation / c;
    out.estimate.expectation = r;
    out.estimate.variance = std::max(
        0.0, (out.sum.variance - 2.0 * r * out.sum_count_cov +
              r * r * out.count.variance) /
                 (c * c));
  }
  out.route.expected_variance = out.estimate.variance;
  out.route.summary_variance = out.estimate.variance;
  return out;
}

Result<std::vector<QueryEstimate>> QueryAnswerer::AnswerGroupByAttribute(
    AttrId a, const CountingQuery& base) const {
  double masked = 0.0;
  return GroupByAttribute(a, base, &masked);
}

Result<std::vector<QueryEstimate>> QueryAnswerer::GroupByAttribute(
    AttrId a, const CountingQuery& base, double* masked) const {
  if (base.num_attributes() != reg_.num_attributes()) {
    return Status::InvalidArgument("query arity does not match the summary");
  }
  if (a >= reg_.num_attributes()) {
    return Status::OutOfRange("group-by attribute out of range");
  }
  if (!(full_value_ > 0.0)) {
    return Status::FailedPrecondition("summary is not solved (P <= 0)");
  }
  // Mask with the base filter but leave attribute `a` unconstrained: the
  // per-value masked cofactors then split the filtered mass by value.
  CountingQuery relaxed = base;
  relaxed.Where(a, AttrPredicate::Any());
  std::vector<double> cof;
  {
    // The derivative pass consumes the masked evaluation's workspace
    // residue, so both run under one lease.
    WorkspacePool::Lease lease = pool_.Acquire();
    const auto eval = poly_.MaskedEvaluate(state_, relaxed, lease.get());
    *masked = eval.value;
    cof = poly_.MaskedAlphaDerivatives(state_, eval, a, lease.get());
  }

  const AttrPredicate& pred = base.predicate(a);
  std::vector<QueryEstimate> out(reg_.domain_size(a));
  for (Code v = 0; v < reg_.domain_size(a); ++v) {
    if (pred.Matches(v)) out[v] = CountOf(state_.alpha[a][v] * cof[v]);
  }
  return out;
}

Result<std::map<std::vector<Code>, QueryEstimate>> QueryAnswerer::AnswerGroupBy(
    const std::vector<AttrId>& attrs,
    const std::vector<std::vector<Code>>& keys,
    const CountingQuery& base) const {
  if (base.num_attributes() != reg_.num_attributes()) {
    return Status::InvalidArgument("query arity does not match the summary");
  }
  for (AttrId a : attrs) {
    if (a >= reg_.num_attributes()) {
      return Status::OutOfRange("group-by attribute out of range");
    }
  }
  if (!(full_value_ > 0.0)) {
    return Status::FailedPrecondition("summary is not solved (P <= 0)");
  }
  // Keys differ from one another only in the grouped attributes' pins, so
  // under one lease each evaluation reuses the previous one's residue: the
  // base filter's prefix sums and the components no changed pin touches.
  WorkspacePool::Lease lease = pool_.Acquire();
  CountingQuery pinned = base;
  std::map<std::vector<Code>, QueryEstimate> out;
  for (const auto& key : keys) {
    if (key.size() != attrs.size()) {
      return Status::InvalidArgument("group-by key arity mismatch");
    }
    QueryEstimate est;
    // A key cell contributes only if it lies in the domain AND satisfies
    // the base filter on its own attribute (the same contract
    // AnswerGroupByAttribute keeps via pred.Matches). It is then the COUNT
    // of the base filter with every grouped attribute pinned to the key's
    // code; where an attribute repeats, its first listed code pins it.
    bool in_domain = true;
    for (size_t i = attrs.size(); i-- > 0;) {
      if (key[i] >= reg_.domain_size(attrs[i]) ||
          !base.predicate(attrs[i]).Matches(key[i])) {
        in_domain = false;
      }
      pinned.Where(attrs[i], AttrPredicate::Point(key[i]));
    }
    if (in_domain) {
      est = CountOf(poly_.MaskedEvaluate(state_, pinned, lease.get(),
                                         /*reuse_residue=*/true)
                        .value);
    }
    out.emplace(key, est);
  }
  return out;
}

}  // namespace entropydb
