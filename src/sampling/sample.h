#ifndef ENTROPYDB_SAMPLING_SAMPLE_H_
#define ENTROPYDB_SAMPLING_SAMPLE_H_

#include <memory>
#include <string>
#include <vector>

#include "sampling/sample_index.h"
#include "storage/table.h"

namespace entropydb {

/// \brief A weighted row sample of a base table.
///
/// `rows` shares the base table's schema and domains; `weights[i]` is the
/// Horvitz-Thompson expansion weight of sample row i (1/pi_i for inclusion
/// probability pi_i), so SUM(weights of matching rows) is unbiased for any
/// counting query.
struct WeightedSample {
  std::shared_ptr<Table> rows;
  std::vector<double> weights;
  /// Nominal sampling fraction used to build the sample.
  double fraction = 0.0;
  /// Display name, e.g. "Uni" or "Strat(origin,dest)".
  std::string name;
  /// Row-group index (sampling/sample_index.h). When present,
  /// SampleEstimator evaluates selective queries over the matching row
  /// groups instead of scanning every row — bitwise-identically, so
  /// carrying (or dropping) the index never changes an estimate, only its
  /// latency. SourceStore::Build and LoadSample derive it from the rows;
  /// the samplers leave it null, and so do tests wanting the scan path.
  std::shared_ptr<const SampleIndex> index;

  size_t size() const { return rows ? rows->num_rows() : 0; }
  size_t MemoryBytes() const {
    return (rows ? rows->MemoryBytes() : 0) +
           weights.capacity() * sizeof(double) +
           (index ? index->MemoryBytes() : 0);
  }
};

}  // namespace entropydb

#endif  // ENTROPYDB_SAMPLING_SAMPLE_H_
