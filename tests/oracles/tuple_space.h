#ifndef ENTROPYDB_TESTS_ORACLES_TUPLE_SPACE_H_
#define ENTROPYDB_TESTS_ORACLES_TUPLE_SPACE_H_

#include <cstdint>
#include <vector>

#include "storage/domain.h"

namespace entropydb {

/// \brief Mixed-radix indexing of the full tuple space Tup = D1 x ... x Dm
/// (Fig 1 of the paper).
///
/// Tuple (c1, .., cm) maps to index sum_i c_i * stride_i. Only usable when
/// |Tup| fits in memory: a test oracle for the dense reference model —
/// the library never materializes Tup.
class TupleSpace {
 public:
  explicit TupleSpace(std::vector<uint32_t> domain_sizes)
      : sizes_(std::move(domain_sizes)), strides_(sizes_.size()) {
    uint64_t stride = 1;
    for (size_t i = sizes_.size(); i-- > 0;) {
      strides_[i] = stride;
      stride *= sizes_[i];
    }
    total_ = stride;
  }

  size_t num_attributes() const { return sizes_.size(); }
  uint64_t size() const { return total_; }
  uint32_t domain_size(size_t a) const { return sizes_[a]; }

  /// Index of an encoded tuple.
  uint64_t IndexOf(const std::vector<Code>& tuple) const {
    uint64_t idx = 0;
    for (size_t a = 0; a < sizes_.size(); ++a) idx += tuple[a] * strides_[a];
    return idx;
  }

  /// Inverse of IndexOf.
  std::vector<Code> TupleAt(uint64_t index) const {
    std::vector<Code> t(sizes_.size());
    for (size_t a = 0; a < sizes_.size(); ++a) {
      t[a] = static_cast<Code>(index / strides_[a]);
      index %= strides_[a];
    }
    return t;
  }

 private:
  std::vector<uint32_t> sizes_;
  std::vector<uint64_t> strides_;
  uint64_t total_ = 1;
};

}  // namespace entropydb

#endif  // ENTROPYDB_TESTS_ORACLES_TUPLE_SPACE_H_
