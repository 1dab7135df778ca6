// Command-line summary builder: CSV in, solved .edb summary (or a routed
// multi-summary store directory) out.
//
//   entropydb_build --csv data.csv
//       --schema "origin:cat,dest:cat,distance:num:81,fl_time:num:62"
//       --pairs auto --ba 2 --budget 500 --out flights.edb
//
//   entropydb_build --csv data.csv --schema ...
//       --summaries 3 --budget 500 --store flights.store
//       --samples 2 --sample-fraction 0.01 --uniform on
//
//   entropydb_build --csv data.csv --schema ...
//       --store flights.store --shards 4 --shard-scheme rr
//
// Schema entries are name:kind[:buckets] with kind one of cat|num|int.
// --pairs is either "auto" (rank by bias-corrected Cramér's V, choose by
// attribute cover, Sec 4.3) or an explicit "a:b,c:d" list of names.
// --store builds one summary per top-ranked pair (K = --summaries, each
// pair getting --budget statistics), solved in parallel, and persists the
// whole store as a directory entropydb_query can route over; --advisor on
// lets BudgetAdvisor pick the breadth-vs-depth split instead (--budget is
// then the TOTAL statistic budget and --summaries is ignored).
// --samples additionally draws stratified sample companions on the same
// top-ranked pairs (and --uniform on a uniform Bernoulli sample) and
// persists them alongside the summaries; the query router then answers
// each query from whichever source — summary or sample — expects the
// lower variance (docs/ESTIMATORS.md).
// --shards N partitions the rows into N shards (--shard-scheme rr|hash)
// and builds EVERY shard's summaries + samples in parallel with the same
// per-shard knobs; the store persists as a MANIFEST v4 directory that
// entropydb_query answers by fanning each query across shards and merging
// the per-shard estimates additively (each shard routes to its own best
// source).
//
// Ingest (sharded stores only, engine/ingest.h):
//
//   entropydb_build --append new_rows.csv --store flights.store
//   entropydb_build --recover on --store flights.store
//
// --append journals one CSV batch (header + rows, matching the store's
// schema and domains) into <store>/ingest.wal, fsyncs it, then seals it —
// and any batches a crashed earlier run left pending — into fresh shards
// appended to the manifest. --recover replays pending batches without
// appending. For ingest, --budget is the TOTAL statistic budget of each
// batch shard (the modeled pairs are inherited from shard 0).
//
// Compaction (engine/compaction.h):
//
//   entropydb_build --compact on --store flights.store
//       [--max-batch-shards N] [--split-threshold R] [--force on]
//
// --compact re-partitions all journal-backed batch rows under the store's
// own scheme and atomically replaces the accumulated shard_b* (and prior
// shard_c*) shards with full-size ones; answers are unchanged. After a
// successful --append the same pass runs automatically when the store
// holds more than --max-batch-shards batch shards (or a shard exceeds
// --split-threshold rows); --auto-compact off suppresses it.
//
// Versioning (storage/version_set.h, engine/versioned.h):
//
//   entropydb_build --csv data.csv --schema ...
//       --store flights.vdb --shards 4 --versioned on [--retain K]
//   entropydb_build --append new_rows.csv --store flights.vdb
//
// --versioned on publishes the built store as version 1 of a versioned
// root at --store (a directory of immutable v<id> subdirectories behind
// one atomic CURRENT pointer) instead of writing the store in place.
// --append and --compact detect a versioned root automatically and
// publish a NEW version per mutation — clone-by-hard-link, mutate the
// clone, flip CURRENT — so concurrent readers (entropydb_serve sessions)
// keep answering from the version they pinned. --retain K keeps the K
// newest versions queryable for time travel (persisted in CURRENT;
// default 2). --recover is refused on a versioned root: published
// versions are immutable, and a crashed append leaves only an
// unpublished clone that the next open sweeps.

#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "entropydb.h"

using namespace entropydb;

namespace {

void Usage() {
  std::fprintf(
      stderr,
      "usage: entropydb_build --csv FILE --schema SPEC\n"
      "                       (--out FILE | --store DIR)\n"
      "                       [--pairs auto|a:b,c:d] [--ba N] [--budget N]\n"
      "                       [--summaries K] [--advisor on]\n"
      "                       [--samples S] [--sample-fraction F]\n"
      "                       [--uniform on]\n"
      "                       [--shards N] [--shard-scheme rr|hash]\n"
      "                       [--heuristic composite|large|zero]\n"
      "                       [--iterations N]\n"
      "                       [--versioned on] [--retain K]\n"
      "       entropydb_build --append BATCH.csv --store DIR\n"
      "                       [--auto-compact on|off] [--max-batch-shards N]\n"
      "                       [--split-threshold R]\n"
      "       entropydb_build --recover on --store DIR\n"
      "       entropydb_build --compact on --store DIR\n"
      "                       [--max-batch-shards N] [--split-threshold R]\n"
      "                       [--force on]\n");
}

Result<Schema> ParseSchemaSpec(const std::string& spec) {
  std::vector<AttributeSpec> attrs;
  for (const auto& field : SplitString(spec, ',')) {
    auto parts = SplitString(field, ':');
    if (parts.size() < 2 || parts.size() > 3) {
      return Status::InvalidArgument("bad schema field: " + field);
    }
    AttributeSpec a;
    a.name = std::string(StripWhitespace(parts[0]));
    std::string kind(StripWhitespace(parts[1]));
    if (kind == "cat") {
      a.type = AttributeType::kCategorical;
    } else if (kind == "num") {
      a.type = AttributeType::kNumeric;
    } else if (kind == "int") {
      a.type = AttributeType::kInteger;
    } else {
      return Status::InvalidArgument("bad attribute kind: " + kind);
    }
    if (parts.size() == 3) {
      ASSIGN_OR_RETURN(int64_t b, ParseInt64(parts[2]));
      a.buckets = static_cast<uint32_t>(b);
    }
    attrs.push_back(std::move(a));
  }
  return Schema(std::move(attrs));
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      Usage();
      return 2;
    }
    args[argv[i] + 2] = argv[i + 1];
  }
  // Ingest and compaction modes act on an EXISTING sharded store: no
  // --csv/--schema (batch rows encode against the store's persisted
  // domains).
  if (args.count("append") || args.count("recover") ||
      args.count("compact")) {
    if (!args.count("store")) {
      Usage();
      return 2;
    }
    StoreOptions iopts;
    if (args.count("budget")) iopts.total_budget = std::stoul(args["budget"]);
    if (args.count("samples")) {
      iopts.num_stratified_samples = std::stoul(args["samples"]);
    }
    if (args.count("sample-fraction")) {
      iopts.sample_fraction = std::stod(args["sample-fraction"]);
    }
    iopts.uniform_sample = args.count("uniform") && args["uniform"] != "off";
    if (args.count("iterations")) {
      iopts.summary.solver.max_iterations = std::stoul(args["iterations"]);
    }
    CompactionOptions copts;
    copts.store = iopts;
    if (args.count("max-batch-shards")) {
      copts.max_batch_shards = std::stoul(args["max-batch-shards"]);
    }
    if (args.count("split-threshold")) {
      copts.split_threshold = std::stoul(args["split-threshold"]);
    }
    // A versioned root routes every mutation through a publish: clone the
    // current version, mutate the clone, flip CURRENT. Plain stores keep
    // the in-place path.
    VersionSet::Options vopts;
    if (args.count("retain")) vopts.retain = std::stoul(args["retain"]);
    const bool versioned =
        VersionSet::IsVersionedRoot(args["store"], Env::Default());
    if (versioned && args.count("recover")) {
      std::fprintf(stderr,
                   "recover: %s is a versioned root; published versions are "
                   "immutable and a crashed append leaves only an "
                   "unpublished clone, swept at next open\n",
                   args["store"].c_str());
      return 1;
    }
    auto print_compaction = [&](const CompactionReport& report) {
      std::printf(
          "compacted %zu shard(s) into %zu (generation %llu, %llu rows) "
          "in %s\n",
          report.replaced_shards.size(), report.new_shards.size(),
          static_cast<unsigned long long>(report.generation),
          static_cast<unsigned long long>(report.rows),
          args["store"].c_str());
    };
    auto compact = [&]() -> int {
      if (versioned) {
        auto report = CompactVersion(args["store"], copts, vopts);
        if (!report.ok()) {
          std::fprintf(stderr, "compact: %s\n",
                       report.status().ToString().c_str());
          return 1;
        }
        if (report->version == 0) {
          std::printf("compaction not triggered in %s\n",
                      args["store"].c_str());
          return 0;
        }
        print_compaction(report->compaction);
        std::printf("published as v%llu\n",
                    static_cast<unsigned long long>(report->version));
        return 0;
      }
      auto report = RunCompaction(args["store"], copts);
      if (!report.ok()) {
        std::fprintf(stderr, "compact: %s\n",
                     report.status().ToString().c_str());
        return 1;
      }
      if (!report->ran) {
        std::printf("compaction not triggered in %s\n",
                    args["store"].c_str());
        return 0;
      }
      print_compaction(*report);
      return 0;
    };
    if (args.count("compact")) {
      copts.force = args.count("force") && args["force"] != "off";
      return compact();
    }
    uint64_t published = 0;
    auto run = [&]() -> Result<IngestReport> {
      if (args.count("append")) {
        std::string csv_text;
        RETURN_NOT_OK(Env::Default()->ReadFile(args["append"], &csv_text));
        if (versioned) {
          ASSIGN_OR_RETURN(
              VersionAppendReport vreport,
              AppendVersion(args["store"], csv_text, iopts, vopts));
          published = vreport.version;
          return vreport.ingest;
        }
        return AppendBatch(args["store"], csv_text, iopts);
      }
      return RecoverPending(args["store"], iopts);
    };
    Result<IngestReport> report = run();
    if (!report.ok()) {
      std::fprintf(stderr, "ingest: %s\n",
                   report.status().ToString().c_str());
      return 1;
    }
    std::printf(
        "journaled %llu batch(es), sealed %llu (%llu recovered) in %s\n",
        static_cast<unsigned long long>(report->journaled),
        static_cast<unsigned long long>(report->sealed),
        static_cast<unsigned long long>(report->recovered),
        args["store"].c_str());
    if (published != 0) {
      std::printf("published as v%llu\n",
                  static_cast<unsigned long long>(published));
    }
    // The batch is durable; compaction is housekeeping on top. It runs
    // only when the thresholds trip, and a failure here must still exit
    // nonzero — the store is intact (crash-atomic flip) but the operator
    // should know the pass did not land.
    if (args.count("append") &&
        (!args.count("auto-compact") || args["auto-compact"] != "off")) {
      return compact();
    }
    return 0;
  }

  if (!args.count("csv") || !args.count("schema") ||
      (!args.count("out") && !args.count("store"))) {
    Usage();
    return 2;
  }

  auto schema = ParseSchemaSpec(args["schema"]);
  if (!schema.ok()) {
    std::fprintf(stderr, "schema: %s\n", schema.status().ToString().c_str());
    return 1;
  }
  auto table = ReadCsv(*schema, args["csv"]);
  if (!table.ok()) {
    std::fprintf(stderr, "csv: %s\n", table.status().ToString().c_str());
    return 1;
  }
  std::printf("loaded %zu rows, %zu attributes, |Tup| = %.3g\n",
              (*table)->num_rows(), (*table)->num_attributes(),
              (*table)->NumPossibleTuples());

  // Resolve statistic pairs.
  size_t ba = args.count("ba") ? std::stoul(args["ba"]) : 2;
  size_t budget = args.count("budget") ? std::stoul(args["budget"]) : 500;
  std::vector<std::pair<AttrId, AttrId>> pairs;
  std::string pair_spec = args.count("pairs") ? args["pairs"] : "auto";
  if (args.count("store")) {
    // The store ranks and picks its own pairs (one summary per pair).
  } else if (pair_spec == "auto") {
    auto ranked = PairSelector::RankPairs(**table);
    for (const auto& p :
         PairSelector::Choose(ranked, ba, PairStrategy::kAttributeCover)) {
      pairs.emplace_back(p.a, p.b);
      std::printf("auto-selected pair (%s, %s), corrected V = %.3f\n",
                  (*table)->schema().attribute(p.a).name.c_str(),
                  (*table)->schema().attribute(p.b).name.c_str(),
                  p.cramers_v);
    }
  } else if (!pair_spec.empty()) {
    for (const auto& pr : SplitString(pair_spec, ',')) {
      auto names = SplitString(pr, ':');
      if (names.size() != 2) {
        std::fprintf(stderr, "bad pair: %s\n", pr.c_str());
        return 1;
      }
      auto a = (*table)->schema().IndexOf(names[0]);
      auto b = (*table)->schema().IndexOf(names[1]);
      if (!a.ok() || !b.ok()) {
        std::fprintf(stderr, "unknown attribute in pair %s\n", pr.c_str());
        return 1;
      }
      pairs.emplace_back(*a, *b);
    }
  }

  SelectionHeuristic heuristic = SelectionHeuristic::kComposite;
  if (args.count("heuristic")) {
    if (args["heuristic"] == "large") {
      heuristic = SelectionHeuristic::kLargeSingleCell;
    } else if (args["heuristic"] == "zero") {
      heuristic = SelectionHeuristic::kZeroSingleCell;
    } else if (args["heuristic"] != "composite") {
      std::fprintf(stderr, "unknown heuristic\n");
      return 1;
    }
  }
  if (args.count("versioned") && args["versioned"] != "off" &&
      !args.count("store")) {
    std::fprintf(stderr, "--versioned needs --store (a directory root)\n");
    return 1;
  }
  if (args.count("store")) {
    // --versioned on: save the built store as the root's next v<id>
    // directory, then flip CURRENT. Re-running against an existing root
    // publishes a fresh version rather than overwriting.
    std::unique_ptr<VersionSet> version_set;
    uint64_t version_id = 0;
    std::string save_path = args["store"];
    if (args.count("versioned") && args["versioned"] != "off") {
      VersionSet::Options vopts;
      if (args.count("retain")) vopts.retain = std::stoul(args["retain"]);
      auto vs = VersionSet::Open(args["store"], Env::Default(), vopts);
      if (!vs.ok()) {
        std::fprintf(stderr, "versioned root: %s\n",
                     vs.status().ToString().c_str());
        return 1;
      }
      version_set = std::move(*vs);
      version_id = version_set->BeginVersion();
      save_path = version_set->VersionDir(version_id);
    }
    auto publish = [&]() -> int {
      if (version_set == nullptr) return 0;
      Status st = version_set->Publish(version_id);
      if (!st.ok()) {
        std::fprintf(stderr, "publish: %s\n", st.ToString().c_str());
        return 1;
      }
      std::printf("published as v%llu (retaining %zu)\n",
                  static_cast<unsigned long long>(version_id),
                  version_set->retain());
      return 0;
    };
    StoreOptions sopts;
    sopts.num_summaries =
        args.count("summaries") ? std::stoul(args["summaries"]) : 3;
    sopts.heuristic = heuristic;
    sopts.use_budget_advisor =
        args.count("advisor") && args["advisor"] != "off";
    // Without the advisor, --budget stays "statistics per pair" and the
    // store splits the total back out evenly. The advisor instead takes
    // the TOTAL budget and decides the breadth-vs-depth split itself, so
    // there --budget is the total (K is the advisor's to choose).
    sopts.total_budget = sopts.use_budget_advisor
                             ? budget
                             : budget * sopts.num_summaries;
    if (args.count("samples")) {
      sopts.num_stratified_samples = std::stoul(args["samples"]);
    }
    if (args.count("sample-fraction")) {
      sopts.sample_fraction = std::stod(args["sample-fraction"]);
    }
    sopts.uniform_sample = args.count("uniform") && args["uniform"] != "off";
    if (args.count("iterations")) {
      sopts.summary.solver.max_iterations = std::stoul(args["iterations"]);
    }

    // --shards: partition the rows and build one full store per shard in
    // parallel; persists as a sharded MANIFEST v4 directory.
    if (args.count("shards")) {
      ShardedOptions shopts;
      shopts.num_shards = std::stoul(args["shards"]);
      if (args.count("shard-scheme")) {
        std::string token = args["shard-scheme"];
        // attr:<name> resolves the attribute by name against the loaded
        // schema; the core layers (and the manifest) speak attr:<index>,
        // which ParsePartitionSpec also accepts directly.
        if (token.rfind("attr:", 0) == 0) {
          const std::string name = token.substr(5);
          auto attr = (*table)->schema().IndexOf(name);
          if (attr.ok()) {
            token = "attr:" + std::to_string(*attr);
          } else if (name.find_first_not_of("0123456789") !=
                     std::string::npos) {
            std::fprintf(stderr, "shard-scheme: unknown attribute '%s'\n",
                         name.c_str());
            return 1;
          }
        }
        auto spec = ParsePartitionSpec(token);
        if (!spec.ok()) {
          std::fprintf(stderr, "shard-scheme: %s\n",
                       spec.status().ToString().c_str());
          return 1;
        }
        shopts.scheme = spec->scheme;
        shopts.partition_attr = spec->attr;
      }
      shopts.store = sopts;
      Timer timer;
      auto sharded = ShardedStore::Build(**table, shopts);
      if (!sharded.ok()) {
        std::fprintf(stderr, "sharded build: %s\n",
                     sharded.status().ToString().c_str());
        return 1;
      }
      std::string scheme_desc = PartitionSchemeName((*sharded)->scheme());
      if ((*sharded)->scheme() == PartitionScheme::kAttribute) {
        scheme_desc +=
            ":" +
            (*table)->schema().attribute((*sharded)->partition_attr()).name;
      }
      std::printf("built %zu shards (%s partitioning) in %.2fs (parallel):\n",
                  (*sharded)->num_shards(), scheme_desc.c_str(),
                  timer.ElapsedSeconds());
      for (size_t s = 0; s < (*sharded)->num_shards(); ++s) {
        const SourceStore& shard = (*sharded)->shard(s);
        std::printf("  shard %zu: %zu summaries + %zu samples, n = %.0f\n",
                    s, shard.size(), shard.num_samples(), shard.n());
      }
      Status st = (*sharded)->Save(save_path);
      if (!st.ok()) {
        std::fprintf(stderr, "save: %s\n", st.ToString().c_str());
        return 1;
      }
      std::printf("sharded store written to %s\n", save_path.c_str());
      return publish();
    }

    Timer timer;
    auto store = SourceStore::Build(**table, sopts);
    if (!store.ok()) {
      std::fprintf(stderr, "store build: %s\n",
                   store.status().ToString().c_str());
      return 1;
    }
    std::printf("built %zu summaries + %zu samples in %.2fs (parallel):\n",
                (*store)->size(), (*store)->num_samples(),
                timer.ElapsedSeconds());
    for (size_t k = 0; k < (*store)->size(); ++k) {
      for (const ScoredPair& p : (*store)->entry(k).pairs) {
        std::printf("  summary %zu: (%s, %s), corrected V = %.3f%s\n", k,
                    (*table)->schema().attribute(p.a).name.c_str(),
                    (*table)->schema().attribute(p.b).name.c_str(),
                    p.cramers_v,
                    k == (*store)->widest() ? "  [fallback]" : "");
      }
    }
    for (size_t s = 0; s < (*store)->num_samples(); ++s) {
      const WeightedSample& smp = *(*store)->sample_entry(s).sample;
      std::printf("  sample %zu: %s, %zu rows (fraction %.3g)\n", s,
                  smp.name.c_str(), smp.size(), smp.fraction);
    }
    Status s = (*store)->Save(save_path);
    if (!s.ok()) {
      std::fprintf(stderr, "save: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("store written to %s\n", save_path.c_str());
    return publish();
  }

  StatisticSelector selector(heuristic);
  std::vector<MultiDimStatistic> stats;
  for (auto [a, b] : pairs) {
    auto s = selector.Select(**table, a, b, budget);
    stats.insert(stats.end(), s.begin(), s.end());
  }
  std::printf("gathered %zu 2-D statistics (%s, budget %zu per pair)\n",
              stats.size(), SelectionHeuristicName(heuristic), budget);

  SummaryOptions opts;
  if (args.count("iterations")) {
    opts.solver.max_iterations = std::stoul(args["iterations"]);
  }
  Timer timer;
  auto summary = EntropySummary::Build(**table, stats, opts);
  if (!summary.ok()) {
    std::fprintf(stderr, "build: %s\n", summary.status().ToString().c_str());
    return 1;
  }
  std::printf("solved in %.2fs: %zu iterations, final error %.2e, "
              "converged=%s\n",
              timer.ElapsedSeconds(), (*summary)->solver_report().iterations,
              (*summary)->solver_report().final_error,
              (*summary)->solver_report().converged ? "yes" : "no");

  Status s = (*summary)->Save(args["out"]);
  if (!s.ok()) {
    std::fprintf(stderr, "save: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("summary written to %s\n", args["out"].c_str());
  return 0;
}
