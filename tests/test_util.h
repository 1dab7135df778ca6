#ifndef ENTROPYDB_TESTS_TEST_UTIL_H_
#define ENTROPYDB_TESTS_TEST_UTIL_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "maxent/variable_registry.h"
#include "query/exact_evaluator.h"
#include "stats/statistic.h"
#include "storage/table_builder.h"

namespace entropydb {
namespace testutil {

/// Builds an encoded table with integer-bucket domains of the given sizes
/// and the given rows of codes. Attribute names are A0, A1, ...
inline std::shared_ptr<Table> MakeTable(
    const std::vector<uint32_t>& domain_sizes,
    const std::vector<std::vector<Code>>& rows) {
  std::vector<AttributeSpec> specs;
  for (size_t a = 0; a < domain_sizes.size(); ++a) {
    specs.push_back(AttributeSpec{"A" + std::to_string(a),
                                  AttributeType::kInteger, domain_sizes[a]});
  }
  TableBuilder b(Schema{std::move(specs)});
  for (size_t a = 0; a < domain_sizes.size(); ++a) {
    b.SetDomain(static_cast<AttrId>(a),
                Domain::Binned(0, domain_sizes[a], domain_sizes[a]));
  }
  for (const auto& row : rows) b.AppendEncodedRow(row);
  auto t = b.Finish();
  return t.ok() ? *t : nullptr;
}

/// Builds a random table with `n` rows over the given domains; mildly
/// correlated (attribute 0 biases attribute 1) so 2-D statistics matter.
inline std::shared_ptr<Table> RandomTable(
    const std::vector<uint32_t>& domain_sizes, size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<Code>> rows(n,
                                      std::vector<Code>(domain_sizes.size()));
  for (auto& row : rows) {
    for (size_t a = 0; a < domain_sizes.size(); ++a) {
      if (a == 1 && rng.NextBernoulli(0.5)) {
        row[a] = static_cast<Code>((row[0] * 2 + rng.Uniform(2)) %
                                   domain_sizes[a]);
      } else {
        row[a] = static_cast<Code>(rng.Uniform(domain_sizes[a]));
      }
    }
  }
  return MakeTable(domain_sizes, rows);
}

/// A random conjunctive query over `t` mixing ANY / point / range / set
/// predicates (each attribute independently; sets hold 1-3 codes).
inline CountingQuery RandomQuery(Rng& rng, const Table& t) {
  CountingQuery q(t.num_attributes());
  for (AttrId a = 0; a < t.num_attributes(); ++a) {
    const uint32_t dom = t.domain(a).size();
    switch (rng.Uniform(5)) {
      case 0: {  // point
        q.Where(a, AttrPredicate::Point(static_cast<Code>(rng.Uniform(dom))));
        break;
      }
      case 1: {  // range
        Code lo = static_cast<Code>(rng.Uniform(dom));
        Code hi = static_cast<Code>(rng.Uniform(dom));
        if (hi < lo) std::swap(lo, hi);
        q.Where(a, AttrPredicate::Range(lo, hi));
        break;
      }
      case 2: {  // set
        std::vector<Code> codes;
        const size_t k = 1 + rng.Uniform(3);
        for (size_t i = 0; i < k; ++i) {
          codes.push_back(static_cast<Code>(rng.Uniform(dom)));
        }
        q.Where(a, AttrPredicate::InSet(std::move(codes)));
        break;
      }
      default:
        break;  // ANY
    }
  }
  return q;
}

/// Exact 1-D histograms of a table, as registry targets.
inline std::vector<std::vector<double>> OneDTargets(const Table& table) {
  ExactEvaluator eval(table);
  std::vector<std::vector<double>> targets(table.num_attributes());
  for (AttrId a = 0; a < table.num_attributes(); ++a) {
    auto h = eval.Histogram1D(a);
    targets[a].assign(h.begin(), h.end());
  }
  return targets;
}

/// Random axis-aligned partition of the (a, b) grid into disjoint
/// rectangles (random recursive splits), returning `count` of its cells as
/// statistics with exact counts from the table. Guarantees the paper's
/// same-attribute-set disjointness invariant by construction.
inline std::vector<MultiDimStatistic> RandomDisjointStats(
    const Table& table, AttrId a, AttrId b, size_t count, uint64_t seed) {
  Rng rng(seed);
  struct R {
    Interval ia, ib;
  };
  std::vector<R> leaves{
      R{{0, table.domain(a).size() - 1}, {0, table.domain(b).size() - 1}}};
  while (leaves.size() < count * 2) {
    size_t pick = rng.Uniform(leaves.size());
    R r = leaves[pick];
    bool split_a = rng.NextBernoulli(0.5);
    if (split_a && r.ia.width() <= 1) split_a = false;
    if (!split_a && r.ib.width() <= 1) split_a = true;
    Interval& iv = split_a ? r.ia : r.ib;
    if (iv.width() <= 1) break;  // all singletons
    Code cut = iv.lo + static_cast<Code>(rng.Uniform(iv.width() - 1));
    R left = r, right = r;
    if (split_a) {
      left.ia = {r.ia.lo, cut};
      right.ia = {static_cast<Code>(cut + 1), r.ia.hi};
    } else {
      left.ib = {r.ib.lo, cut};
      right.ib = {static_cast<Code>(cut + 1), r.ib.hi};
    }
    leaves[pick] = left;
    leaves.push_back(right);
  }
  ExactEvaluator eval(table);
  std::vector<MultiDimStatistic> stats;
  for (size_t i = 0; i < leaves.size() && stats.size() < count; ++i) {
    const R& r = leaves[i];
    CountingQuery q(table.num_attributes());
    q.Where(a, AttrPredicate::Range(r.ia.lo, r.ia.hi));
    q.Where(b, AttrPredicate::Range(r.ib.lo, r.ib.hi));
    stats.push_back(Make2DStatistic(
        a, r.ia, b, r.ib, static_cast<double>(eval.Count(q))));
  }
  return stats;
}

/// Registry over a table with exact 1-D targets and the given stats.
inline VariableRegistry MakeRegistry(const Table& table,
                                     std::vector<MultiDimStatistic> mds) {
  std::vector<uint32_t> sizes;
  for (AttrId a = 0; a < table.num_attributes(); ++a) {
    sizes.push_back(table.domain(a).size());
  }
  auto reg = VariableRegistry::Create(sizes, OneDTargets(table),
                                      std::move(mds),
                                      static_cast<double>(table.num_rows()));
  return *reg;
}

}  // namespace testutil
}  // namespace entropydb

#endif  // ENTROPYDB_TESTS_TEST_UTIL_H_
