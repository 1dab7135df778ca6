// Command-line query shell over a persisted summary or summary store — no
// base data needed.
//
//   entropydb_query --summary flights.edb
//       --query "COUNT(*) WHERE origin = S3 AND distance BETWEEN 100 AND 500"
//
//   entropydb_query --store flights.store
//       --query "COUNT(*) WHERE origin = S3 AND dest = S7"
//
// --summary and --store are two spellings of one path argument:
// EntropyEngine::Open sniffs a file (one summary), a monolithic store
// directory (summaries + sample companions), a sharded directory, or a
// versioned root, and serves every one of them as a sharded store — a
// summary is a one-entry store, a monolithic store one shard. So every
// engine prints the same load banner, and every query prints ONE route
// line PER SHARD: which source — summary or sample — answered inside that
// shard and why (coverage, the summary-vs-sample variance comparison,
// fallback, or zone-map pruning) before the estimates merge.
// Without --query, reads one query per line from stdin (a tiny REPL).
//
// The dialect covers COUNT/SUM/AVG plus QUANTILE(attr, q) and
// TOPK(attr, k). With --join PATH a second (RIGHT) relation loads and the
// shell switches to the two-relation dialect:
//
//   entropydb_query --store flights.store --join carriers.store
//       --query "COUNT(*) ON carrier WHERE left.distance BETWEEN 100 AND 500"

#include <cstdio>
#include <cstring>
#include <iostream>
#include <limits>
#include <map>
#include <string>

#include "entropydb.h"

using namespace entropydb;

namespace {

/// One route line for shard `s`'s decision, made against that shard's
/// store. `estimated` is false for group-by routings (QUANTILE/TOPK),
/// whose decisions carry no estimate variance of their own.
void PrintShardRoute(const std::vector<std::string>& names,
                     const SourceStore& store, const RouteDecision& dec,
                     size_t s, bool estimated) {
  if (dec.pruned) {
    std::fprintf(stderr,
                 "  shard %zu: pruned — zone map on %s proves no row can "
                 "match\n",
                 s, names[dec.pruned_attr].c_str());
    return;
  }
  if (dec.from_sample) {
    const SampleEntry& entry = store.sample_entry(dec.sample_index);
    std::fprintf(stderr,
                 "  shard %zu: sample %zu %s — sample variance %.3g beats "
                 "summary %zu's %.3g\n",
                 s, dec.sample_index, entry.sample->name.c_str(),
                 dec.sample_variance, dec.index, dec.summary_variance);
    return;
  }
  const StoreEntry& entry = store.entry(dec.index);
  std::string pairs;
  for (const ScoredPair& p : entry.pairs) {
    pairs += pairs.empty() ? " (" : ", (";
    pairs += names[p.a] + ", " + names[p.b] + ")";
  }
  if (dec.fallback) {
    std::fprintf(stderr,
                 "  shard %zu: summary %zu%s — fallback (no summary models "
                 "the constrained pairs)\n",
                 s, dec.index, pairs.c_str());
  } else {
    std::fprintf(stderr,
                 "  shard %zu: summary %zu%s — covers %zu pair%s"
                 " (%zu candidate%s",
                 s, dec.index, pairs.c_str(), dec.covered_pairs,
                 dec.covered_pairs == 1 ? "" : "s", dec.candidates,
                 dec.candidates == 1 ? "" : "s");
    if (estimated) {
      std::fprintf(stderr, ", variance %.3g", dec.expected_variance);
    }
    std::fprintf(stderr, ")\n");
  }
  if (store.num_samples() > 0 &&
      dec.sample_variance < std::numeric_limits<double>::infinity()) {
    // The comparison objective is the COUNT variance on both sides (for
    // aggregates dec.expected_variance is the aggregate's own variance,
    // which is not what the router compared).
    std::fprintf(stderr,
                 "          (summary kept it: count variance %.3g vs best "
                 "sample %.3g)\n",
                 dec.summary_variance, dec.sample_variance);
  }
}

/// One route line per shard — the best source can differ shard to shard —
/// then the per-query pruning summary: how much of the fan-out the zone
/// maps saved, and which attribute did the proving.
void PrintRoutes(const EntropyEngine& engine,
                 const std::vector<RouteDecision>& decs, bool estimated) {
  size_t pruned = 0;
  AttrId pruned_attr = 0;
  for (size_t s = 0; s < decs.size(); ++s) {
    PrintShardRoute(engine.attr_names(), engine.sharded()->shard(s), decs[s],
                    s, estimated);
    if (decs[s].pruned && pruned++ == 0) pruned_attr = decs[s].pruned_attr;
  }
  if (pruned > 0) {
    std::fprintf(stderr, "  pruned %zu/%zu shards via zone map on %s\n",
                 pruned, decs.size(),
                 engine.attr_names()[pruned_attr].c_str());
  }
}

/// The load banner: partitioning and totals, then every shard's sources
/// with their modeled / stratification pairs.
void PrintBanner(const EntropyEngine& engine) {
  const ShardedStore& sharded = *engine.sharded();
  const std::vector<std::string>& names = engine.attr_names();
  std::string scheme_desc = PartitionSchemeName(sharded.scheme());
  if (sharded.scheme() == PartitionScheme::kAttribute) {
    scheme_desc += ":" + names[sharded.partition_attr()];
  }
  std::fprintf(stderr,
               "loaded store: %zu shard%s (%s partitioning, compaction "
               "generation %llu), %zu summaries + %zu samples total, "
               "n = %.0f, attributes:",
               sharded.num_shards(), sharded.num_shards() == 1 ? "" : "s",
               scheme_desc.c_str(),
               static_cast<unsigned long long>(sharded.compaction_gen()),
               engine.num_summaries(), engine.num_samples(), engine.n());
  for (const std::string& name : names) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  for (size_t s = 0; s < sharded.num_shards(); ++s) {
    const SourceStore& shard = sharded.shard(s);
    std::fprintf(stderr, "  shard %zu: %zu summaries + %zu samples, n = %.0f\n",
                 s, shard.size(), shard.num_samples(), shard.n());
    for (size_t k = 0; k < shard.size(); ++k) {
      std::fprintf(stderr, "    summary %zu:", k);
      for (const ScoredPair& p : shard.entry(k).pairs) {
        std::fprintf(stderr, " (%s, %s) V=%.3f", names[p.a].c_str(),
                     names[p.b].c_str(), p.cramers_v);
      }
      std::fprintf(stderr, "%s\n", k == shard.widest() ? " [fallback]" : "");
    }
    for (size_t i = 0; i < shard.num_samples(); ++i) {
      const SampleEntry& e = shard.sample_entry(i);
      std::fprintf(stderr, "    sample %zu: %s,", i, e.sample->name.c_str());
      // Stratification pairs from the manifest metadata (uniform samples
      // carry none).
      for (const ScoredPair& p : e.pairs) {
        std::fprintf(stderr, " stratified on (%s, %s) V=%.3f,",
                     names[p.a].c_str(), names[p.b].c_str(), p.cramers_v);
      }
      std::fprintf(stderr, " %zu rows (fraction %.3g)\n", e.sample->size(),
                   e.sample->fraction);
    }
  }
}

int RunOne(const EntropyEngine& engine, const std::string& text) {
  auto parsed = ParseQuery(text, engine.attr_names(), engine.domains());
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse: %s\n", parsed.status().ToString().c_str());
    return 1;
  }
  const AggregateQuery query = ToAggregateQuery(*parsed, engine.domains());
  Timer timer;
  std::vector<RouteDecision> shard_decs;
  auto res = engine.Answer(query, nullptr, &shard_decs);
  if (!res.ok()) {
    std::fprintf(stderr, "answer: %s\n", res.status().ToString().c_str());
    return 1;
  }
  const double ms = timer.ElapsedMillis();
  switch (parsed->aggregate) {
    case ParsedQuery::Aggregate::kCount: {
      auto [lo, hi] = res->estimate.ConfidenceInterval(1.96, engine.n());
      std::printf("%.1f    (95%% CI [%.1f, %.1f], %.2f ms)\n",
                  res->estimate.expectation, lo, hi, ms);
      break;
    }
    case ParsedQuery::Aggregate::kSum:
    case ParsedQuery::Aggregate::kAvg:
      std::printf("%.3f    (+/- %.3f, %.2f ms)\n",
                  res->estimate.expectation, 1.96 * res->estimate.StdDev(),
                  ms);
      break;
    case ParsedQuery::Aggregate::kQuantile:
      std::printf("%.3f    (95%% bound [%.3f, %.3f], %.2f ms)\n",
                  res->estimate.expectation, res->bound_lo, res->bound_hi,
                  ms);
      break;
    case ParsedQuery::Aggregate::kTopK: {
      const Domain& dom = engine.domains()[query.agg_attr];
      std::printf("top %zu of %s (%.2f ms):\n", res->cells.size(),
                  engine.attr_names()[query.agg_attr].c_str(), ms);
      for (const GroupCell& cell : res->cells) {
        std::printf("  %-16s %.1f    (+/- %.1f)\n",
                    dom.LabelFor(cell.code).c_str(),
                    cell.estimate.expectation,
                    1.96 * cell.estimate.StdDev());
      }
      break;
    }
  }
  const bool estimated = query.kind != AggregateKind::kQuantile &&
                         query.kind != AggregateKind::kTopK;
  PrintRoutes(engine, shard_decs, estimated);
  return 0;
}

/// --join mode: this engine is the LEFT relation, `right` the RIGHT; the
/// fused estimate comes from EntropyEngine::AnswerJoin (docs/ESTIMATORS.md
/// "Join fusion").
int RunOneJoin(const EntropyEngine& left, const EntropyEngine& right,
               const std::string& text) {
  auto parsed = ParseJoinQuery(text, left.attr_names(), left.domains(),
                               right.attr_names(), right.domains());
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse: %s\n", parsed.status().ToString().c_str());
    return 1;
  }
  const AggregateQuery query = ToAggregateQuery(*parsed, left.domains());
  Timer timer;
  auto res = left.AnswerJoin(query, right);
  if (!res.ok()) {
    std::fprintf(stderr, "answer: %s\n", res.status().ToString().c_str());
    return 1;
  }
  std::printf("%.1f    (+/- %.1f, %.2f ms)\n", res->estimate.expectation,
              1.96 * res->estimate.StdDev(), timer.ElapsedMillis());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) break;
    args[argv[i] + 2] = argv[i + 1];
  }
  if (!args.count("summary") && !args.count("store")) {
    std::fprintf(stderr,
                 "usage: entropydb_query (--summary FILE | --store DIR) "
                 "[--join PATH] [--query Q]\n");
    return 2;
  }
  const std::string path =
      args.count("store") ? args["store"] : args["summary"];
  auto engine = EntropyEngine::Open(path);
  if (!engine.ok()) {
    std::fprintf(stderr, "load: %s\n", engine.status().ToString().c_str());
    return 1;
  }
  // --join switches the shell to the two-relation dialect: the main path
  // is the LEFT relation, --join names the RIGHT.
  std::shared_ptr<EntropyEngine> right;
  if (args.count("join")) {
    auto opened = EntropyEngine::Open(args["join"]);
    if (!opened.ok()) {
      std::fprintf(stderr, "load join relation: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    right = *opened;
    if (!right->has_domains()) {
      std::fprintf(stderr,
                   "join relation has no domain metadata; rebuild it with "
                   "entropydb_build\n");
      return 1;
    }
  }
  if (!(*engine)->has_domains()) {
    std::fprintf(stderr,
                 "summary has no domain metadata; rebuild it with "
                 "entropydb_build\n");
    return 1;
  }
  PrintBanner(**engine);

  if (args.count("query")) {
    return right != nullptr ? RunOneJoin(**engine, *right, args["query"])
                            : RunOne(**engine, args["query"]);
  }
  std::string line;
  int rc = 0;
  while (std::getline(std::cin, line)) {
    if (std::string(StripWhitespace(line)).empty()) continue;
    rc = right != nullptr ? RunOneJoin(**engine, *right, line)
                          : RunOne(**engine, line);
  }
  return rc;
}
