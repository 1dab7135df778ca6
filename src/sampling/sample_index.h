#ifndef ENTROPYDB_SAMPLING_SAMPLE_INDEX_H_
#define ENTROPYDB_SAMPLING_SAMPLE_INDEX_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "query/counting_query.h"
#include "storage/table.h"

namespace entropydb {

/// \brief Value-keyed row groups over a sample table — the zone-map-style
/// skipping index behind indexed Horvitz-Thompson evaluation.
///
/// For every attribute `a` the index holds a dictionary-ordered row
/// permutation `perm(a)` plus prefix-sum group offsets `offsets(a)`: the
/// rows whose code on `a` equals `c` occupy
/// `perm(a)[offsets(a)[c] .. offsets(a)[c+1]-1]`, in ASCENDING original-row
/// order. A selective predicate therefore resolves to a handful of row
/// groups (O(1) lookups through the offsets), and the estimator touches
/// only those candidate rows instead of scanning the whole sample.
///
/// The ascending-within-group invariant is what keeps indexed evaluation
/// semantics-preserving: SampleEstimator walks one group straight off the
/// permutation, and candidates from several groups through a row bitmap
/// read low bit to high, so either way rows accumulate in ascending
/// original-row order and sums, variances, and every routing decision
/// downstream are bitwise identical to the full-scan path (floating-point
/// addition is order-sensitive; the ORDER, not just the set, must match).
/// See docs/PERFORMANCE.md.
///
/// Immutable after construction and safe to share across query threads.
class SampleIndex {
 public:
  /// Per-attribute layout: `offsets` has domain_size + 1 entries (prefix
  /// sums of per-code group sizes, so offsets.back() == num rows); `perm`
  /// is the grouped row permutation.
  struct AttrIndex {
    std::vector<uint32_t> offsets;
    std::vector<uint32_t> perm;
  };

  /// Builds the index over every attribute of `rows` (counting sort per
  /// attribute: O(num_rows + domain_size), rows ascending within each
  /// group by construction). This is the only way to make one: the index
  /// is derived wherever sample rows are materialized (SourceStore::Build,
  /// LoadSample) and never persisted.
  static std::shared_ptr<const SampleIndex> Build(const Table& rows);

  size_t num_attributes() const { return attrs_.size(); }
  size_t num_rows() const { return num_rows_; }
  const AttrIndex& attr(AttrId a) const { return attrs_[a]; }

  /// Number of rows in the groups matching `pred` on attribute `a` — the
  /// candidate-set size indexed evaluation would touch. O(1) for point and
  /// range predicates, O(|set|) for sets.
  size_t CandidateCount(AttrId a, const AttrPredicate& pred) const;

  /// The constrained attribute whose matching row groups are smallest
  /// (ties toward the lowest attribute id, keeping the chosen plan
  /// deterministic). Returns false when `q` constrains nothing.
  bool BestAttribute(const CountingQuery& q, AttrId* best,
                     size_t* candidates) const;

  /// A slice [begin, end) of one attribute's permutation.
  struct RowSpan {
    const uint32_t* begin = nullptr;
    const uint32_t* end = nullptr;
  };

  /// Hands over the rows of the groups matching `pred` on `a` in a form
  /// that walks in ascending original-row order without a sort, and
  /// returns how many non-empty groups matched. With at most one, `*single`
  /// is that group's slice of perm(a) (ascending by construction; empty
  /// when nothing matched) and `bits` is untouched. With more, `*single`
  /// is empty and `bits` holds ceil(num_rows / 64) words with bit r % 64
  /// of word r / 64 set for exactly the candidate rows r, so reading the
  /// set bits low to high visits them in ascending row order.
  size_t MarkRows(AttrId a, const AttrPredicate& pred, RowSpan* single,
                  std::vector<uint64_t>* bits) const;

  size_t MemoryBytes() const;

 private:
  SampleIndex(std::vector<AttrIndex> attrs, size_t num_rows)
      : attrs_(std::move(attrs)), num_rows_(num_rows) {}

  std::vector<AttrIndex> attrs_;
  size_t num_rows_ = 0;
};

}  // namespace entropydb

#endif  // ENTROPYDB_SAMPLING_SAMPLE_INDEX_H_
