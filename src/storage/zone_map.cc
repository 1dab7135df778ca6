#include "storage/zone_map.h"

#include <algorithm>

namespace entropydb {

namespace {

size_t WordsFor(uint32_t domain_size) { return (domain_size + 63) / 64; }

bool BitSet(const std::vector<uint64_t>& bits, Code c) {
  return (bits[c >> 6] >> (c & 63)) & 1u;
}

}  // namespace

ZoneMap ZoneMap::FromCounts(const std::vector<std::vector<double>>& counts) {
  ZoneMap zm;
  zm.attrs_.resize(counts.size());
  for (AttrId a = 0; a < counts.size(); ++a) {
    AttrPresence& p = zm.attrs_[a];
    p.domain_size = static_cast<uint32_t>(counts[a].size());
    // Collect presence densely first, then pick the encoding from the
    // observed density.
    std::vector<uint64_t> bits(WordsFor(p.domain_size), 0);
    for (Code c = 0; c < p.domain_size; ++c) {
      if (counts[a][c] > 0.0) bits[c >> 6] |= uint64_t{1} << (c & 63);
    }
    size_t distinct = 0;
    for (uint64_t w : bits) distinct += __builtin_popcountll(w);
    p.distinct = distinct;
    if (distinct * kSparseCutoverDivisor < p.domain_size) {
      p.encoding = Encoding::kSparse;
      p.codes.reserve(distinct);
      for (Code c = 0; c < p.domain_size; ++c) {
        if (BitSet(bits, c)) p.codes.push_back(c);
      }
    } else {
      p.encoding = Encoding::kDense;
      p.bits = std::move(bits);
    }
  }
  return zm;
}

ZoneMap ZoneMap::Build(const Table& table) {
  std::vector<std::vector<double>> counts(table.num_attributes());
  for (AttrId a = 0; a < table.num_attributes(); ++a) {
    counts[a].assign(table.domain(a).size(), 0.0);
    for (size_t r = 0; r < table.num_rows(); ++r) {
      const Code c = table.at(r, a);
      if (c < counts[a].size()) counts[a][c] += 1.0;
    }
  }
  return FromCounts(counts);
}

bool ZoneMap::Contains(AttrId a, Code c) const {
  const AttrPresence& p = attrs_[a];
  if (c >= p.domain_size) return false;
  if (p.encoding == Encoding::kDense) return BitSet(p.bits, c);
  return std::binary_search(p.codes.begin(), p.codes.end(), c);
}

bool ZoneMap::ContainsAnyInRange(AttrId a, Code lo, Code hi) const {
  const AttrPresence& p = attrs_[a];
  if (p.domain_size == 0 || lo > hi || lo >= p.domain_size) return false;
  hi = std::min<Code>(hi, p.domain_size - 1);
  if (p.encoding == Encoding::kSparse) {
    auto it = std::lower_bound(p.codes.begin(), p.codes.end(), lo);
    return it != p.codes.end() && *it <= hi;
  }
  // Dense: test the partial edge words and any full words between them.
  const size_t wlo = lo >> 6;
  const size_t whi = hi >> 6;
  const uint64_t lo_mask = ~uint64_t{0} << (lo & 63);
  const uint64_t hi_mask = ~uint64_t{0} >> (63 - (hi & 63));
  if (wlo == whi) return (p.bits[wlo] & lo_mask & hi_mask) != 0;
  if ((p.bits[wlo] & lo_mask) != 0) return true;
  for (size_t w = wlo + 1; w < whi; ++w) {
    if (p.bits[w] != 0) return true;
  }
  return (p.bits[whi] & hi_mask) != 0;
}

bool ZoneMap::MightMatch(const CountingQuery& q, AttrId* pruned_attr) const {
  if (q.num_attributes() != attrs_.size()) return true;
  for (AttrId a = 0; a < attrs_.size(); ++a) {
    const AttrPredicate& pred = q.predicate(a);
    bool possible = true;
    switch (pred.kind()) {
      case AttrPredicate::Kind::kAny:
        continue;
      case AttrPredicate::Kind::kPoint:
        possible = Contains(a, pred.lo());
        break;
      case AttrPredicate::Kind::kRange:
        possible = ContainsAnyInRange(a, pred.lo(), pred.hi());
        break;
      case AttrPredicate::Kind::kSet: {
        possible = false;
        for (Code c : pred.set()) {
          if (Contains(a, c)) {
            possible = true;
            break;
          }
        }
        break;
      }
    }
    if (!possible) {
      if (pruned_attr != nullptr) *pruned_attr = a;
      return false;
    }
  }
  return true;
}

}  // namespace entropydb
