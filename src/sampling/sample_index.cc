#include "sampling/sample_index.h"

#include <algorithm>

#include "common/prefix_sum.h"

namespace entropydb {

namespace {

/// Inclusive code interval [lo, hi] covered by `pred` against a domain of
/// `dom` codes; empty (second < first) for predicates matching nothing.
/// Set predicates are handled separately (they are not an interval).
std::pair<Code, Code> PredInterval(const AttrPredicate& pred, size_t dom) {
  if (dom == 0) return {1, 0};
  switch (pred.kind()) {
    case AttrPredicate::Kind::kAny:
      return {0, static_cast<Code>(dom - 1)};
    case AttrPredicate::Kind::kPoint:
      if (pred.lo() >= dom) return {1, 0};
      return {pred.lo(), pred.lo()};
    case AttrPredicate::Kind::kRange: {
      const Code hi = std::min<Code>(pred.hi(), static_cast<Code>(dom - 1));
      if (pred.lo() > hi) return {1, 0};
      return {pred.lo(), hi};
    }
    case AttrPredicate::Kind::kSet:
      break;
  }
  return {1, 0};
}

}  // namespace

std::shared_ptr<const SampleIndex> SampleIndex::Build(const Table& rows) {
  const size_t n = rows.num_rows();
  std::vector<AttrIndex> attrs(rows.num_attributes());
  for (AttrId a = 0; a < rows.num_attributes(); ++a) {
    const size_t dom = rows.domain(a).size();
    // Per-code group sizes, then prefix-sum offsets (group c occupies
    // [offsets[c], offsets[c+1]) of the permutation).
    std::vector<double> counts(dom, 0.0);
    for (size_t r = 0; r < n; ++r) counts[rows.at(r, a)] += 1.0;
    const PrefixSum sums(counts);
    AttrIndex& idx = attrs[a];
    idx.offsets.resize(dom + 1);
    idx.offsets[0] = 0;
    for (size_t c = 0; c < dom; ++c) {
      idx.offsets[c + 1] = static_cast<uint32_t>(sums.RangeSum(0, c));
    }
    // Stable counting-sort fill: visiting rows in ascending order keeps
    // each group's rows ascending — the invariant indexed evaluation
    // needs for bitwise-identical accumulation.
    idx.perm.resize(n);
    std::vector<uint32_t> cursor(idx.offsets.begin(), idx.offsets.end() - 1);
    for (size_t r = 0; r < n; ++r) {
      idx.perm[cursor[rows.at(r, a)]++] = static_cast<uint32_t>(r);
    }
  }
  return std::shared_ptr<const SampleIndex>(
      new SampleIndex(std::move(attrs), n));
}

size_t SampleIndex::CandidateCount(AttrId a,
                                   const AttrPredicate& pred) const {
  const AttrIndex& idx = attrs_[a];
  const size_t dom = idx.offsets.size() - 1;
  if (pred.kind() == AttrPredicate::Kind::kSet) {
    size_t total = 0;
    for (Code c : pred.set()) {
      if (c < dom) total += idx.offsets[c + 1] - idx.offsets[c];
    }
    return total;
  }
  const auto [lo, hi] = PredInterval(pred, dom);
  if (hi < lo) return 0;
  return idx.offsets[hi + 1] - idx.offsets[lo];
}

bool SampleIndex::BestAttribute(const CountingQuery& q, AttrId* best,
                                size_t* candidates) const {
  bool have = false;
  for (AttrId a = 0; a < q.num_attributes() && a < attrs_.size(); ++a) {
    const AttrPredicate& pred = q.predicate(a);
    if (pred.is_any()) continue;
    const size_t count = CandidateCount(a, pred);
    if (!have || count < *candidates) {
      *best = a;
      *candidates = count;
      have = true;
    }
  }
  return have;
}

size_t SampleIndex::MarkRows(AttrId a, const AttrPredicate& pred,
                             RowSpan* single,
                             std::vector<uint64_t>* bits) const {
  const AttrIndex& idx = attrs_[a];
  const size_t dom = idx.offsets.size() - 1;
  *single = RowSpan{};
  size_t groups = 0;
  auto mark = [bits](RowSpan span) {
    uint64_t* words = bits->data();
    for (const uint32_t* r = span.begin; r != span.end; ++r) {
      words[*r >> 6] |= uint64_t{1} << (*r & 63);
    }
  };
  auto add = [&](Code c) {
    const RowSpan span{idx.perm.data() + idx.offsets[c],
                       idx.perm.data() + idx.offsets[c + 1]};
    if (span.begin == span.end) return;
    if (++groups == 1) {
      *single = span;
      return;
    }
    if (groups == 2) {
      // A second group: the candidates no longer form one ascending run,
      // so both go to the bitmap.
      bits->assign((num_rows_ + 63) / 64, 0);
      mark(*single);
      *single = RowSpan{};
    }
    mark(span);
  };
  if (pred.kind() == AttrPredicate::Kind::kSet) {
    for (Code c : pred.set()) {
      if (c < dom) add(c);
    }
    return groups;
  }
  const auto [lo, hi] = PredInterval(pred, dom);
  if (lo <= hi) {
    for (Code c = lo; c <= hi; ++c) add(c);
  }
  return groups;
}

size_t SampleIndex::MemoryBytes() const {
  size_t total = sizeof(*this);
  for (const AttrIndex& idx : attrs_) {
    total += idx.offsets.capacity() * sizeof(uint32_t) +
             idx.perm.capacity() * sizeof(uint32_t);
  }
  return total;
}

}  // namespace entropydb
