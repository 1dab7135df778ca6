#include "sampling/sample_estimator.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace entropydb {

namespace {

/// Row bitmap for multi-group indexed evaluation. Estimators are shared
/// const across the lock-free query path, so the bitmap is per thread;
/// it amortizes to zero allocations per query.
std::vector<uint64_t>& RowBitmap() {
  thread_local std::vector<uint64_t> bits;
  return bits;
}

/// A bound no running variance reaches: every comparison with NaN is
/// false, so CountUntil never stops.
constexpr double kNoBound = std::numeric_limits<double>::quiet_NaN();

}  // namespace

SampleEstimator::SampleEstimator(const WeightedSample& sample)
    : sample_(sample) {
  double w_max = 0.0;
  for (double w : sample_.weights) {
    w_max = std::max(w_max, w);
    // The exact term Count adds; false for NaN and for w in (0, 1).
    if (!(w * (w - 1.0) >= 0.0)) monotone_ = false;
  }
  if (sample_.weights.empty() && sample_.fraction > 0.0) {
    w_max = 1.0 / sample_.fraction;  // nominal weight of the missed row
  }
  miss_floor_ = std::max(0.0, w_max * (w_max - 1.0));
}

Result<QueryEstimate> SampleEstimator::Answer(const CountingQuery& q) const {
  return AnswerUntil(q, kNoBound);
}

Result<QueryResult> SampleEstimator::Answer(const AggregateQuery& q) const {
  const Table& t = *sample_.rows;
  if (q.where.num_attributes() != t.num_attributes()) {
    return Status::InvalidArgument("query arity does not match the sample");
  }
  if (q.kind == AggregateKind::kCount) {
    QueryResult out;
    out.estimate = Count(q.where);
    out.count = out.estimate;
    out.has_moments = true;
    out.route.expected_variance = out.estimate.variance;
    return out;
  }
  if (q.kind != AggregateKind::kSum) {
    return Status::NotSupported(
        std::string("aggregate kind ") + AggregateKindName(q.kind) +
        " does not answer from a sample source");
  }
  if (q.agg_attr >= t.num_attributes() ||
      q.weights.size() != t.domain(q.agg_attr).size()) {
    return Status::InvalidArgument("bad aggregate attribute or weights");
  }
  // One matching-row pass fills both legs AND the covariance; the sum leg
  // is bitwise what the dedicated Sum accumulator reports.
  QueryResult out = Moments(q.agg_attr, q.weights, q.where);
  out.estimate = out.sum;
  out.route.expected_variance = out.estimate.variance;
  return out;
}

bool SampleEstimator::PlanIndexed(const CountingQuery& q,
                                  IndexedPlan* plan) const {
  if (sample_.index == nullptr ||
      sample_.index->num_rows() != sample_.rows->num_rows()) {
    return false;
  }
  const SampleIndex& index = *sample_.index;
  size_t candidates = 0;
  if (!index.BestAttribute(q, &plan->chosen, &candidates)) return false;
  // Near-full candidate sets make marking and walking the bitmap cost
  // more than the plain scan it replaces; both paths are bitwise
  // identical, so the cutover is purely a latency choice.
  if (2 * candidates >= index.num_rows()) return false;
  std::vector<uint64_t>& bits = RowBitmap();
  if (index.MarkRows(plan->chosen, q.predicate(plan->chosen), &plan->single,
                     &bits) > 1) {
    plan->bits = &bits;
  }
  return true;
}

QueryEstimate SampleEstimator::CountUntil(const CountingQuery& q,
                                          double bound) const {
  // Hoisted out of the per-row statements: reloading it through `this`
  // on every matched row costs the scan loop a register.
  const double* weights = sample_.weights.data();
  QueryEstimate est;
  bool matched = false;
  ForEachMatchingRow(q, [&](size_t r) {
    const double w = weights[r];
    est.expectation += w;
    est.variance += w * (w - 1.0);
    matched = true;
    return !(est.variance >= bound);
  });
  if (!matched) est.variance = miss_floor_;
  return est;
}

QueryEstimate SampleEstimator::Count(const CountingQuery& q) const {
  return CountUntil(q, kNoBound);
}

Result<QueryEstimate> SampleEstimator::AnswerUntil(const CountingQuery& q,
                                                   double bound) const {
  if (q.num_attributes() != sample_.rows->num_attributes()) {
    return Status::InvalidArgument("query arity does not match the sample");
  }
  return CountUntil(q, monotone_ ? bound : kNoBound);
}

QueryEstimate SampleEstimator::Sum(AttrId a,
                                   const std::vector<double>& values,
                                   const CountingQuery& q) const {
  const Table& t = *sample_.rows;
  const double* weights = sample_.weights.data();
  QueryEstimate est;
  bool matched = false;
  ForEachMatchingRow(q, [&](size_t r) {
    const double w = weights[r];
    const double v = values[t.at(r, a)];
    est.expectation += w * v;
    est.variance += w * (w - 1.0) * v * v;
    matched = true;
    return true;
  });
  if (!matched) {
    double v2_max = 0.0;
    for (double v : values) v2_max = std::max(v2_max, v * v);
    est.variance = miss_floor_ * v2_max;
  }
  return est;
}

QueryResult SampleEstimator::Moments(AttrId a,
                                     const std::vector<double>& values,
                                     const CountingQuery& q) const {
  const Table& t = *sample_.rows;
  const double* weights = sample_.weights.data();
  QueryResult out;
  bool matched = false;
  ForEachMatchingRow(q, [&](size_t r) {
    const double w = weights[r];
    const double v = values[t.at(r, a)];
    out.count.expectation += w;
    out.count.variance += w * (w - 1.0);
    out.sum.expectation += w * v;
    out.sum.variance += w * (w - 1.0) * v * v;
    out.sum_count_cov += w * (w - 1.0) * v;
    matched = true;
    return true;
  });
  if (!matched) {
    double v2_max = 0.0;
    for (double v : values) v2_max = std::max(v2_max, v * v);
    out.count.variance = miss_floor_;
    out.sum.variance = miss_floor_ * v2_max;
  }
  out.has_moments = true;
  return out;
}

}  // namespace entropydb
