#include "workload.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <unordered_set>

namespace e2e {

using namespace entropydb;

namespace {

constexpr AttrId kDate = 0;
constexpr AttrId kOrigin = 1;
constexpr AttrId kDest = 2;
constexpr AttrId kTime = 3;
constexpr AttrId kDistance = 4;

/// Query kinds of the explore mix.
enum class Kind { kCountPoint, kCountRange, kSum, kAvg, kQuantile, kTopK };
constexpr size_t kNumKinds = 6;

/// The explore mix, one slot per request modulo 12: COUNT points and
/// ranges are half the traffic, the value aggregates the other half.
/// These shares are an unmeasured assumption. The paper evaluates COUNT
/// point queries only, and no record of real exploration traffic over
/// the other kinds exists to draw them from. A traced run reports each
/// kind's share of the replayed request time (mix.share.*), which is
/// what a gain on one kind is worth to this mix.
constexpr Kind kMix[12] = {
    Kind::kCountPoint, Kind::kCountRange, Kind::kSum,      Kind::kCountPoint,
    Kind::kAvg,        Kind::kTopK,       Kind::kCountPoint, Kind::kCountRange,
    Kind::kQuantile,   Kind::kCountPoint, Kind::kSum,      Kind::kTopK};

uint64_t SplitMix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::string ValueText(const Domain& dom, Code c) {
  if (dom.is_categorical()) return dom.labels()[c];
  // Unit-width bins (fl_date) print as the integer they hold; wider bins
  // as their midpoint, which the parser maps back to the same bucket.
  const double v = dom.bin_width() == 1.0
                       ? dom.bin_lo() + c
                       : dom.RepresentativeFor(c).as_double();
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string Name(const Table& t, AttrId a) {
  return t.schema().attribute(a).name;
}

/// What random predicates draw from. Ranges start and end on codes
/// present in the relation, so every selection has mass (a QUANTILE of an
/// empty selection is an error).
struct Vocabulary {
  const Table& table;
  const std::vector<std::vector<Code>>& present;
  std::vector<std::string> od_points;  ///< COUNT points over (origin, dest)
  std::vector<std::string> td_points;  ///< and over (fl_time, distance)

  std::string Point(AttrId a, Rng& rng) const {
    return PointPredicate(table, a, present[a][rng.Uniform(present[a].size())]);
  }

  /// "<attr> BETWEEN lo AND hi" spanning at most half the present codes.
  std::string Range(AttrId a, Rng& rng) const {
    const std::vector<Code>& codes = present[a];
    const size_t lo = rng.Uniform(codes.size());
    const size_t hi =
        std::min(codes.size() - 1, lo + rng.Uniform(codes.size() / 2));
    return Name(table, a) + " BETWEEN " +
           ValueText(table.domain(a), codes[lo]) + " AND " +
           ValueText(table.domain(a), codes[hi]);
  }
};

/// A 1..60-day fl_date window: the partition attribute, so dated queries
/// let zone maps prune shards.
std::string DateRange(const Table& t, Rng& rng) {
  const uint32_t size = t.domain(kDate).size();
  const uint32_t width = 1 + static_cast<uint32_t>(rng.Uniform(60));
  const Code lo = static_cast<Code>(rng.Uniform(size - width + 1));
  return Name(t, kDate) + " BETWEEN " + ValueText(t.domain(kDate), lo) +
         " AND " + ValueText(t.domain(kDate), lo + width - 1);
}

std::string PointText(const Table& t, const std::vector<AttrId>& attrs,
                      const std::vector<Code>& key) {
  std::string out = "COUNT(*) WHERE ";
  for (size_t i = 0; i < attrs.size(); ++i) {
    if (i > 0) out += " AND ";
    out += PointPredicate(t, attrs[i], key[i]);
  }
  return out;
}

/// Every heavy / light / nonexistent point of one pair, as COUNT text.
std::vector<std::string> PairPoints(const Table& t, const WorkloadSets& sets) {
  std::vector<std::string> out;
  for (const auto* group : {&sets.heavy, &sets.light, &sets.nonexistent}) {
    for (const QueryPoint& p : *group) {
      out.push_back(PointText(t, sets.attrs, p.key));
    }
  }
  return out;
}

/// The points of both pairs.
std::vector<std::string> AllPoints(const Dataset& data) {
  std::vector<std::string> out = PairPoints(*data.table, data.od);
  const std::vector<std::string> td = PairPoints(*data.table, data.td);
  out.insert(out.end(), td.begin(), td.end());
  return out;
}

/// Hands out distinct texts from `draw` until 64 draws in a row repeat,
/// then cycles through what it produced.
class Pool {
 public:
  Pool(std::function<std::string(Rng&)> draw, uint64_t seed)
      : draw_(std::move(draw)), rng_(seed) {}

  std::string Next() {
    if (!dry_) {
      for (int tries = 0; tries < 64; ++tries) {
        std::string s = draw_(rng_);
        if (seen_.insert(s).second) {
          items_.push_back(s);
          return s;
        }
      }
      dry_ = true;
      seen_.clear();
    }
    return items_[cycle_++ % items_.size()];
  }

 private:
  std::function<std::string(Rng&)> draw_;
  Rng rng_;
  std::unordered_set<std::string> seen_;
  std::vector<std::string> items_;
  size_t cycle_ = 0;
  bool dry_ = false;
};

/// The undated body of one random explore query of `kind`, in one of its
/// two forms (`alt`).
std::string DrawBody(const Vocabulary& v, Kind kind, bool alt, Rng& rng) {
  switch (kind) {
    case Kind::kCountPoint: {
      const std::vector<std::string>& points = alt ? v.td_points : v.od_points;
      return points[rng.Uniform(points.size())];
    }
    case Kind::kCountRange:
      return alt ? "COUNT(*) WHERE " + v.Range(kDistance, rng) + " AND " +
                       v.Point(kOrigin, rng)
                 : "COUNT(*) WHERE " + v.Range(kTime, rng) + " AND " +
                       v.Point(kDest, rng);
    case Kind::kSum:
      return alt ? "SUM(distance) WHERE " + v.Point(kOrigin, rng) + " AND " +
                       v.Point(kDest, rng)
                 : "SUM(fl_time) WHERE " + v.Range(kDistance, rng);
    case Kind::kAvg:
      return alt ? "AVG(fl_time) WHERE " + v.Range(kDistance, rng)
                 : "AVG(distance) WHERE " + v.Point(kOrigin, rng) + " AND " +
                       v.Range(kTime, rng);
    case Kind::kQuantile: {
      char q[16];
      std::snprintf(q, sizeof(q), "%.2f", (1 + rng.Uniform(19)) / 20.0);
      return alt ? std::string("QUANTILE(distance, ") + q + ") WHERE " +
                       v.Point(kOrigin, rng)
                 : std::string("QUANTILE(fl_time, ") + q + ") WHERE " +
                       v.Range(kDistance, rng);
    }
    case Kind::kTopK: {
      const std::string k = std::to_string(1 + rng.Uniform(10));
      return alt ? "TOPK(dest, " + k + ") WHERE " + v.Point(kOrigin, rng)
                 : "TOPK(distance, " + k + ") WHERE " + v.Range(kTime, rng);
    }
  }
  return "";
}

/// `take` distinct items of `from`, chosen by a partial Fisher-Yates.
std::vector<QueryPoint> Choose(std::vector<QueryPoint> from, size_t take,
                               Rng& rng) {
  take = std::min(take, from.size());
  for (size_t i = 0; i < take; ++i) {
    std::swap(from[i], from[i + rng.Uniform(from.size() - i)]);
  }
  from.resize(take);
  return from;
}

}  // namespace

std::string PointPredicate(const Table& table, AttrId a, Code c) {
  return Name(table, a) + " = " + ValueText(table.domain(a), c);
}

Result<Dataset> Dataset::Make(size_t rows) {
  Dataset data;
  FlightsConfig config;
  config.num_rows = rows;
  config.fine_grained = true;
  config.seed = 42;
  ASSIGN_OR_RETURN(data.table, FlightsGenerator::Generate(config));
  // (fl_time, distance) has only ~1,100 existing cells at 2M rows, so its
  // heavy and light sets are smaller than (origin, dest)'s.
  WorkloadConfig od_config{1000, 1000, 1000, 1234};
  WorkloadConfig td_config{300, 300, 1000, 1234};
  ASSIGN_OR_RETURN(data.od,
                   SelectWorkload(*data.table, {kOrigin, kDest}, od_config));
  ASSIGN_OR_RETURN(data.td,
                   SelectWorkload(*data.table, {kTime, kDistance}, td_config));
  const Table& t = *data.table;
  data.present.resize(t.num_attributes());
  for (AttrId a = 0; a < t.num_attributes(); ++a) {
    std::vector<bool> seen(t.domain(a).size());
    for (size_t r = 0; r < t.num_rows(); ++r) seen[t.at(r, a)] = true;
    for (Code c = 0; c < seen.size(); ++c) {
      if (seen[c]) data.present[a].push_back(c);
    }
  }
  return data;
}

Streams::Streams(const Dataset& data, uint64_t seed)
    : data_(data), seed_(seed), points_(AllPoints(data)) {
  Rng rng(SplitMix(seed ^ 0xBA7C));
  std::shuffle(points_.begin(), points_.end(), rng);
}

std::vector<std::string> Streams::Explore(size_t n) const {
  const Table& t = *data_.table;
  const Vocabulary vocabulary{t, data_.present, PairPoints(t, data_.od),
                              PairPoints(t, data_.td)};
  // One pool per (kind, form, dated). The forms of a kind differ in cost
  // and in how many distinct texts they have; were they one pool, the
  // form with fewer texts would run out first and the stream would get
  // cheaper the further it went.
  std::vector<Pool> pools;
  for (size_t k = 0; k < 4 * kNumKinds; ++k) {
    const Kind kind = static_cast<Kind>(k / 4);
    const bool alt = k % 4 >= 2;
    const bool dated = k % 2 == 1;
    pools.emplace_back(
        [&t, &vocabulary, kind, alt, dated](Rng& rng) {
          std::string body = DrawBody(vocabulary, kind, alt, rng);
          return dated ? body + " AND " + DateRange(t, rng) : body;
        },
        SplitMix(seed_ * 31 + k));
  }
  std::vector<std::string> out(n);
  for (size_t i = 0; i < n; ++i) {
    const Kind kind = kMix[i % 12];
    const uint64_t h = SplitMix(seed_ ^ (i * 0x2545F4914F6CDD1DULL));
    const bool dated = h % 3 == 0;
    const bool alt = (h >> 32) & 1;
    out[i] = pools[4 * static_cast<size_t>(kind) + 2 * alt + dated].Next();
  }
  return out;
}

std::vector<std::string> Streams::DashboardSet() const { return Explore(256); }

std::vector<uint16_t> Streams::DashboardRanks(size_t n) const {
  ZipfSampler zipf(256, 1.1);
  Rng rng(SplitMix(seed_ ^ 0xDA5B));
  std::vector<uint16_t> ranks(n);
  for (auto& r : ranks) r = static_cast<uint16_t>(zipf.Sample(rng));
  return ranks;
}

std::vector<std::string> Streams::BatchFrame(size_t f) const {
  std::vector<std::string> frame(64);
  for (size_t j = 0; j < frame.size(); ++j) {
    frame[j] = points_[(f * frame.size() + j) % points_.size()];
  }
  return frame;
}

std::vector<AccuracyQuery> Streams::Accuracy() const {
  const Table& t = *data_.table;
  Rng rng(SplitMix(seed_ ^ 0xACC));
  std::vector<AccuracyQuery> out;
  auto add = [&](const WorkloadSets& sets, const std::vector<QueryPoint>& pool,
                 size_t take, AccuracyQuery::Set set) {
    for (const QueryPoint& p : Choose(pool, take, rng)) {
      out.push_back({PointText(t, sets.attrs, p.key), p.true_count, set});
    }
  };
  using Set = AccuracyQuery::Set;
  // 1:2 light to nonexistent, the paper's Fig 6 ratio, five times over.
  add(data_.od, data_.od.heavy, 200, Set::kHeavy);
  add(data_.od, data_.od.light, 250, Set::kLight);
  add(data_.od, data_.od.nonexistent, 500, Set::kNonexistent);
  add(data_.td, data_.td.heavy, 100, Set::kHeavy);
  add(data_.td, data_.td.light, 250, Set::kLight);
  add(data_.td, data_.td.nonexistent, 500, Set::kNonexistent);

  // SUM(distance) over existing (origin, dest) points; the exact answer
  // weights each row by its bucket midpoint, as the server's SUM does.
  const std::vector<double> weights = BucketWeights(t.domain(kDistance));
  const uint32_t width = t.domain(kDest).size();
  std::vector<double> sums(static_cast<size_t>(t.domain(kOrigin).size()) *
                           width);
  for (size_t r = 0; r < t.num_rows(); ++r) {
    sums[static_cast<size_t>(t.at(r, kOrigin)) * width + t.at(r, kDest)] +=
        weights[t.at(r, kDistance)];
  }
  std::vector<QueryPoint> existing = data_.od.heavy;
  existing.insert(existing.end(), data_.od.light.begin(),
                  data_.od.light.end());
  for (const QueryPoint& p : Choose(existing, 200, rng)) {
    out.push_back({"SUM(distance) WHERE " +
                       PointPredicate(t, kOrigin, p.key[0]) + " AND " +
                       PointPredicate(t, kDest, p.key[1]),
                   sums[static_cast<size_t>(p.key[0]) * width + p.key[1]],
                   Set::kSum});
  }
  return out;
}

uint64_t Streams::Fingerprint() const {
  uint64_t h = 0xCBF29CE484222325ULL;
  auto mix = [&h](const std::string& s) {
    for (unsigned char c : s) h = (h ^ c) * 0x100000001B3ULL;
    h = (h ^ 0xFF) * 0x100000001B3ULL;
  };
  for (const std::string& q : Explore(4096)) mix(q);
  for (uint16_t r : DashboardRanks(4096)) mix(std::to_string(r));
  for (size_t f = 0; f < 64; ++f) {
    for (const std::string& s : BatchFrame(f)) mix(s);
  }
  for (const AccuracyQuery& a : Accuracy()) mix(a.text);
  return h;
}

}  // namespace e2e
