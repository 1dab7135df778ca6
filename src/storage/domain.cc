#include "storage/domain.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace entropydb {

Domain Domain::Categorical(std::vector<std::string> labels) {
  Domain d;
  d.categorical_ = true;
  d.labels_ = std::move(labels);
  d.index_.reserve(d.labels_.size());
  for (Code i = 0; i < d.labels_.size(); ++i) {
    d.index_.emplace(d.labels_[i], i);
  }
  return d;
}

Domain Domain::Binned(double lo, double hi, uint32_t buckets) {
  Domain d;
  d.categorical_ = false;
  d.buckets_ = buckets;
  d.lo_ = lo;
  d.hi_ = hi;
  d.width_ = (hi - lo) / static_cast<double>(buckets);
  return d;
}

Result<Code> Domain::Encode(const Value& v) const {
  if (categorical_) {
    if (!v.is_string()) {
      return Status::InvalidArgument(
          "categorical domain expects string value, got " + v.ToString());
    }
    auto it = index_.find(v.as_string());
    if (it == index_.end()) {
      return Status::NotFound("label not in domain: " + v.as_string());
    }
    return it->second;
  }
  return BucketOf(v.as_double());
}

Code Domain::BucketOf(double v) const {
  if (!(v > lo_) || buckets_ == 0) return 0;  // NaN lands here too
  const double raw = std::floor((v - lo_) / width_);
  const Code last = buckets_ - 1;
  // Clamped as a double: a value far past the top (or +inf) must not
  // overflow the integer cast.
  return raw < last ? static_cast<Code>(raw) : last;
}

std::pair<Code, Code> Domain::BucketRange(double lo, double hi) const {
  if (hi < lo_ || lo >= hi_) {
    return {1, 0};  // empty
  }
  return {BucketOf(lo), BucketOf(hi)};
}

std::string Domain::LabelFor(Code code) const {
  if (categorical_) {
    return code < labels_.size() ? labels_[code] : "<bad-code>";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "[%.6g, %.6g)", lo_ + width_ * code,
                lo_ + width_ * (code + 1));
  return buf;
}

Value Domain::RepresentativeFor(Code code) const {
  if (categorical_) return Value(LabelFor(code));
  return Value(lo_ + width_ * (static_cast<double>(code) + 0.5));
}

}  // namespace entropydb
