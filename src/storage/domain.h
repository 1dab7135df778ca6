#ifndef ENTROPYDB_STORAGE_DOMAIN_H_
#define ENTROPYDB_STORAGE_DOMAIN_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "storage/value.h"

namespace entropydb {

/// Dense encoded value: index into an attribute's active domain.
using Code = uint32_t;

/// \brief The active domain of one attribute: an ordered list of buckets.
///
/// The paper's model (Sec 3.1) requires each attribute domain to be discrete
/// and ordered; continuous attributes are equi-width bucketized (Sec 6.1).
/// A Domain is either:
///  - categorical: one bucket per distinct label (dictionary), or
///  - binned:      `size` equi-width buckets covering [lo, hi).
class Domain {
 public:
  Domain() = default;

  /// Builds a categorical domain from ordered distinct labels.
  static Domain Categorical(std::vector<std::string> labels);

  /// Builds an equi-width binned domain over [lo, hi) with `buckets` buckets.
  /// Requires buckets >= 1 and hi > lo.
  static Domain Binned(double lo, double hi, uint32_t buckets);

  bool is_categorical() const { return categorical_; }

  /// Number of distinct buckets (N_i in the paper).
  uint32_t size() const {
    return categorical_ ? static_cast<uint32_t>(labels_.size()) : buckets_;
  }

  /// Encodes a raw value to its bucket code.
  /// Categorical: exact label lookup (NotFound if absent).
  /// Binned: floor((v - lo) / width), clamped to the outer buckets.
  Result<Code> Encode(const Value& v) const;

  /// Human-readable bucket label. Binned buckets render as "[lo, hi)".
  std::string LabelFor(Code code) const;

  /// Representative (midpoint / label) raw value for a bucket.
  Value RepresentativeFor(Code code) const;

  /// For binned domains: the bucket covering `v`, clamped to the first
  /// and last bucket (NaN maps to the first).
  Code BucketOf(double v) const;

  /// For binned domains: inclusive code range covering [lo, hi]; empty
  /// (second < first) when the range misses the domain entirely.
  std::pair<Code, Code> BucketRange(double lo, double hi) const;

  double bin_lo() const { return lo_; }
  double bin_hi() const { return hi_; }
  double bin_width() const { return width_; }

  const std::vector<std::string>& labels() const { return labels_; }

  bool operator==(const Domain& other) const {
    return categorical_ == other.categorical_ && labels_ == other.labels_ &&
           buckets_ == other.buckets_ && lo_ == other.lo_ && hi_ == other.hi_;
  }

 private:
  bool categorical_ = true;
  // Categorical representation.
  std::vector<std::string> labels_;
  std::unordered_map<std::string, Code> index_;
  // Binned representation.
  uint32_t buckets_ = 0;
  double lo_ = 0.0;
  double hi_ = 0.0;
  double width_ = 0.0;
};

}  // namespace entropydb

#endif  // ENTROPYDB_STORAGE_DOMAIN_H_
