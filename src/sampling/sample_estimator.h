#ifndef ENTROPYDB_SAMPLING_SAMPLE_ESTIMATOR_H_
#define ENTROPYDB_SAMPLING_SAMPLE_ESTIMATOR_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "maxent/answerer.h"
#include "query/aggregate.h"
#include "query/counting_query.h"
#include "sampling/sample.h"
#include "sampling/sample_index.h"

namespace entropydb {

/// \brief Horvitz-Thompson estimation over a weighted sample.
///
/// expectation = sum of weights of matching sample rows. The variance field
/// uses the Bernoulli/Poisson-sampling approximation
/// sum_i w_i (w_i - 1) over matching rows, which is exact for Bernoulli
/// samples and a slight over-estimate for without-replacement strata.
///
/// When the sample carries a row-group index (WeightedSample::index),
/// selective queries are answered from the smallest matching row groups
/// instead of a full scan. A single group is walked straight off the
/// index permutation; several groups are marked in a per-thread row
/// bitmap whose set bits are read low to high. Either way candidate rows
/// are accumulated in ascending original-row order — exactly the scan's
/// order — so indexed estimates, variances, and every routing decision
/// built on them are bitwise identical to the unindexed path
/// (docs/PERFORMANCE.md has the cost model and measured speedups).
///
/// When NO sampled row matches, the matching-row sum degenerates to
/// variance 0 — which would read as "perfectly confident the count is 0"
/// exactly where a sample is weakest (a rare slice the sample may simply
/// have missed). Count/Sum instead report the finite floor
/// w_max (w_max - 1): the estimator variance had one maximally-weighted row
/// been missed. The hybrid router (engine/query_router.h) therefore routes
/// such queries back to a summary rather than trusting a silent zero; see
/// docs/ESTIMATORS.md.
///
/// The two Answer overloads are the store-facing surface: a SourceStore
/// holds one estimator per sample companion and the router calls them
/// exactly like a summary's. The estimator references `sample`, which
/// must outlive it.
class SampleEstimator {
 public:
  explicit SampleEstimator(const WeightedSample& sample);

  /// COUNT(*) with its expected variance, after checking the query's
  /// arity against the sample (kInvalidArgument on mismatch).
  Result<QueryEstimate> Answer(const CountingQuery& q) const;

  /// COUNT and SUM, with the Horvitz-Thompson moment legs filled (SUM
  /// through Moments, so its legs and covariance come from one pass).
  /// AVG, QUANTILE, TOPK and the JOIN kinds are kNotSupported; arity and
  /// aggregate-weight mismatches are kInvalidArgument.
  Result<QueryResult> Answer(const AggregateQuery& q) const;

  /// COUNT(*) for the hybrid challenge against a rival whose variance is
  /// `bound` (engine/query_router.h): Answer(q), except that the walk
  /// stops as soon as the running variance reaches `bound`. Rows are
  /// visited in ascending row order and, when every weight has
  /// w (w - 1) >= 0, each term is >= 0, so the running sum is a prefix of
  /// Count's and never decreases. A stopped walk therefore reports a
  /// variance >= `bound` and <= Count(q)'s (its expectation is partial):
  /// it cannot win a strict-less comparison against `bound`. A walk that
  /// does not stop is Count(q) bitwise. A sample holding a NaN weight or
  /// one in (0, 1) never stops early.
  Result<QueryEstimate> AnswerUntil(const CountingQuery& q, double bound) const;

  /// Estimated COUNT(*) for a conjunctive query. Variance is
  /// sum w_i (w_i - 1) over matching rows, floored at MissFloor() when no
  /// row matches.
  QueryEstimate Count(const CountingQuery& q) const;

  /// Estimated SUM of a per-value weight over attribute `a` under filter
  /// `q` (one entry of `values` per bucket of `a`, e.g. bucket midpoints).
  /// expectation = sum w_i values[code_i(a)] over matching rows; variance =
  /// sum w_i (w_i - 1) values^2, floored at MissFloor() * max(values^2)
  /// when no row matches.
  QueryEstimate Sum(AttrId a, const std::vector<double>& values,
                    const CountingQuery& q) const;

  /// SUM and COUNT moment legs plus their covariance in ONE matching-row
  /// pass: per row, the count leg gains (w, w (w - 1)), the sum leg
  /// (w v, w (w - 1) v^2), and the covariance w (w - 1) v — the
  /// Horvitz-Thompson cross term Cov(S, C) under Bernoulli sampling
  /// (docs/ESTIMATORS.md "Cross-shard merging"). Each accumulator runs
  /// the identical statements in the identical row order as Count/Sum,
  /// so the legs are bitwise the separate calls' answers. When no row
  /// matches, the legs take their miss floors and the covariance stays 0
  /// (a silent miss carries no cross information).
  QueryResult Moments(AttrId a, const std::vector<double>& values,
                      const CountingQuery& q) const;

  /// The zero-match variance floor w_max (w_max - 1), where w_max is the
  /// largest expansion weight in the sample (for an EMPTY sample, the
  /// nominal weight 1/fraction). 0 for a full (weight-1) sample, where a
  /// zero count really is exact; always finite.
  double MissFloor() const { return miss_floor_; }

 private:
  /// Candidate rows of an indexed plan: the rows of the matching groups
  /// of attribute `chosen`, in ascending original-row order, either as
  /// one group's slice of the index permutation or — when `bits` is set —
  /// as the set bits of a thread-local row bitmap.
  struct IndexedPlan {
    AttrId chosen = 0;
    SampleIndex::RowSpan single;
    const std::vector<uint64_t>* bits = nullptr;
  };

  /// Indexed-plan front half shared by Count, Sum and Moments: picks the
  /// constrained attribute with the smallest matching row groups and
  /// lays out its candidate rows (see IndexedPlan). Returns false when
  /// the sample has no index, the query constrains nothing, or the
  /// candidate set is so large that scanning is cheaper — the caller then
  /// takes the scan path, which is bitwise equivalent either way.
  bool PlanIndexed(const CountingQuery& q, IndexedPlan* plan) const;

  /// The COUNT walk behind Count and AnswerUntil: it stops once the
  /// running variance reaches `bound`, and never for a NaN bound. One
  /// body, so both accumulate the identical statements per row.
  QueryEstimate CountUntil(const CountingQuery& q, double bound) const;

  /// Runs `fn(row)` for every sample row matching `q`, in ascending
  /// original-row order, via the indexed plan when profitable and the
  /// full scan otherwise, until `fn` returns false. Count, Sum, Moments
  /// and AnswerUntil all accumulate through this one iterator (only
  /// AnswerUntil's walk stops it), so the paths cannot desynchronize:
  /// per matching row they execute the identical statements in the
  /// identical order — the bitwise-identity contract routing depends on.
  template <typename PerRow>
  void ForEachMatchingRow(const CountingQuery& q, const PerRow& fn) const {
    const Table& t = *sample_.rows;
    IndexedPlan plan;
    if (PlanIndexed(q, &plan)) {
      const ActivePredicates residual(q, plan.chosen);
      if (plan.bits != nullptr) {
        const std::vector<uint64_t>& bits = *plan.bits;
        for (size_t w = 0; w < bits.size(); ++w) {
          // Clearing the lowest set bit each step reads the word's rows
          // in ascending order.
          for (uint64_t word = bits[w]; word != 0; word &= word - 1) {
            const size_t r =
                w * 64 + static_cast<size_t>(__builtin_ctzll(word));
            if (residual.Matches(t, r) && !fn(r)) return;
          }
        }
      } else {
        for (const uint32_t* r = plan.single.begin; r != plan.single.end;
             ++r) {
          if (residual.Matches(t, *r) && !fn(*r)) return;
        }
      }
    } else {
      const ActivePredicates active(q);
      for (size_t r = 0; r < t.num_rows(); ++r) {
        if (active.Matches(t, r) && !fn(r)) return;
      }
    }
  }

  const WeightedSample& sample_;
  double miss_floor_ = 0.0;
  /// True when every weight has w (w - 1) >= 0, so a COUNT's running
  /// variance never decreases and AnswerUntil may stop early.
  bool monotone_ = true;
};

}  // namespace entropydb

#endif  // ENTROPYDB_SAMPLING_SAMPLE_ESTIMATOR_H_
