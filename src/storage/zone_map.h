#ifndef ENTROPYDB_STORAGE_ZONE_MAP_H_
#define ENTROPYDB_STORAGE_ZONE_MAP_H_

#include <cstdint>
#include <vector>

#include "query/counting_query.h"
#include "storage/table.h"

namespace entropydb {

/// \brief Per-shard, per-attribute domain-presence metadata — the succinct
/// structure ShardedStore consults BEFORE fanning a query out, so shards
/// that provably cannot match a constrained value are skipped entirely.
///
/// For every attribute the map records exactly which domain codes occur in
/// the shard's rows. ShardedStore derives it from the shard's summaries
/// (FromCounts over the exact 1-D statistics every summary keeps), so it
/// is never persisted. Presence is held in one of two encodings chosen by
/// density:
///  - dense bitmap: one bit per domain code, when the shard touches at
///    least 1/32 of the domain (a sparse list would cost more: 32 bits per
///    present code vs. 1 bit per domain slot);
///  - sparse sorted code list with binary-search lookup (the select-few
///    idiom of terark's rank_select_few: few set positions, stored
///    explicitly in order), when occupancy is below the 1/32 cutover —
///    the regime attribute-partitioned shards live in, where a shard holds
///    a thin contiguous slice of the partition attribute's domain.
///
/// Pruning on a zone map is EXACT, not approximate: a code absent from the
/// shard has a zero 1-D marginal target, the solver pins its model
/// variable at alpha = 0, so the shard's summary answers an impossible
/// conjunction with expectation 0 and Binomial variance n p (1 - p) = 0 —
/// and the hybrid router only hands a query to a sample on STRICTLY lower
/// variance, which 0 forecloses. Skipping the shard therefore removes an
/// exact {0, 0} term from an additive merge: merged estimates AND
/// variances stay bitwise identical to full fan-out (gated in
/// tests/engine/shard_pruning_test.cc).
class ZoneMap {
 public:
  enum class Encoding { kDense, kSparse };

  /// Sparse wins below 1/32 occupancy: a sparse entry costs 32 bits where
  /// a bitmap slot costs 1.
  static constexpr uint32_t kSparseCutoverDivisor = 32;

  /// Presence from per-attribute, per-code counts (a summary's 1-D
  /// statistics): code c of attribute a is present iff counts[a][c] > 0,
  /// and attribute a's domain has counts[a].size() codes.
  static ZoneMap FromCounts(const std::vector<std::vector<double>>& counts);

  /// Scans `table` once and records per-attribute code presence — the map
  /// FromCounts derives from the 1-D statistics of any summary of `table`,
  /// and the reference tests hold the derived maps to.
  static ZoneMap Build(const Table& table);

  size_t num_attributes() const { return attrs_.size(); }
  uint32_t domain_size(AttrId a) const { return attrs_[a].domain_size; }
  Encoding encoding(AttrId a) const { return attrs_[a].encoding; }
  /// Distinct codes present in the shard for attribute `a`.
  size_t distinct(AttrId a) const { return attrs_[a].distinct; }

  /// True when code `c` occurs in the shard (false for out-of-domain `c`).
  bool Contains(AttrId a, Code c) const;

  /// True when any code in the inclusive range [lo, hi] occurs.
  bool ContainsAnyInRange(AttrId a, Code lo, Code hi) const;

  /// True unless some constrained attribute of `q` has an allowed code set
  /// entirely absent from the shard — the pruning test. When it returns
  /// false, `*pruned_attr` (optional) names the attribute that proved the
  /// miss. Queries of a different arity never prune (defensive: the
  /// answer path would reject them anyway).
  bool MightMatch(const CountingQuery& q, AttrId* pruned_attr = nullptr) const;

 private:
  struct AttrPresence {
    uint32_t domain_size = 0;
    Encoding encoding = Encoding::kSparse;
    size_t distinct = 0;
    /// kDense: ceil(domain_size / 64) little-endian bit words.
    std::vector<uint64_t> bits;
    /// kSparse: sorted distinct codes.
    std::vector<Code> codes;
  };

  std::vector<AttrPresence> attrs_;
};

}  // namespace entropydb

#endif  // ENTROPYDB_STORAGE_ZONE_MAP_H_
