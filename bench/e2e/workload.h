#ifndef ENTROPYDB_BENCH_E2E_WORKLOAD_H_
#define ENTROPYDB_BENCH_E2E_WORKLOAD_H_

// Inputs of the end-to-end benchmark: the fixed flights relation, the
// seeded query streams of the four workloads, and the accuracy subset
// with its exact answers. Everything here is a pure function of the
// relation and the seed; the server only ever sees the generated text.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "entropydb.h"

namespace e2e {

using entropydb::AttrId;
using entropydb::Code;

/// The benchmark relation: FlightsGenerator at a fixed seed, plus the
/// paper's heavy / light / nonexistent point sets (SelectWorkload) over
/// the two pairs every COUNT point is drawn from.
struct Dataset {
  std::shared_ptr<entropydb::Table> table;
  entropydb::WorkloadSets od;  ///< (origin, dest)
  entropydb::WorkloadSets td;  ///< (fl_time, distance)
  /// Per attribute, the codes that occur in the relation.
  std::vector<std::vector<Code>> present;

  static entropydb::Result<Dataset> Make(size_t rows);
};

/// One accuracy-subset query with its exact answer.
struct AccuracyQuery {
  std::string text;
  double truth = 0.0;
  enum class Set { kHeavy, kLight, kNonexistent, kSum } set = Set::kHeavy;
};

/// Seeded generators for every workload's request stream.
class Streams {
 public:
  Streams(const Dataset& data, uint64_t seed);

  /// The explore stream: request i has the kind in slot i % 12 of the
  /// mix; a hash of i picks one of the kind's two forms and, for a third
  /// of the requests, an fl_date range. Texts come from one pool per
  /// (kind, form, dated) that hands out distinct texts until it runs dry,
  /// then cycles, so a text recurs only after every other text of its
  /// pool: more than 12,000 requests later, far beyond the result cache.
  std::vector<std::string> Explore(size_t n) const;

  /// Dashboard: 256 fixed explore queries, and the rank each request
  /// picks under Zipf(1.1).
  std::vector<std::string> DashboardSet() const;
  std::vector<uint16_t> DashboardRanks(size_t n) const;

  /// Batch: frame f carries points f*64 .. f*64+63 of a seeded
  /// permutation of every heavy / light / nonexistent point (4,600 > the
  /// 4,096-entry result cache, so cycling through them never hits).
  std::vector<std::string> BatchFrame(size_t f) const;

  /// The accuracy subset: 1,800 COUNT points (per pair: heavy, light and
  /// nonexistent) plus 200 SUM(distance) over existing (origin, dest)
  /// points, each with its exact answer.
  std::vector<AccuracyQuery> Accuracy() const;

  /// FNV-1a over every stream's first requests: equal for equal seeds.
  uint64_t Fingerprint() const;

 private:
  const Dataset& data_;
  uint64_t seed_;
  std::vector<std::string> points_;  ///< batch order
};

/// Renders "<attr> = <value>" for an encoded code.
std::string PointPredicate(const entropydb::Table& table, AttrId a, Code c);

}  // namespace e2e

#endif  // ENTROPYDB_BENCH_E2E_WORKLOAD_H_
