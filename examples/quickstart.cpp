// Quickstart: build a multi-summary store over a synthetic flights table
// and answer exploratory queries through the routed engine facade,
// comparing against the exact answers.
//
// Run:  ./build/examples/quickstart

#include <cstdio>

#include "entropydb.h"

using namespace entropydb;

int main() {
  // 1. Load (here: generate) the dataset.
  FlightsConfig config;
  config.num_rows = 200'000;
  config.seed = 42;
  auto table_r = FlightsGenerator::Generate(config);
  if (!table_r.ok()) {
    std::fprintf(stderr, "generate: %s\n",
                 table_r.status().ToString().c_str());
    return 1;
  }
  const Table& table = **table_r;
  std::printf("table: %zu rows, %zu attributes, |Tup| = %.3g\n",
              table.num_rows(), table.num_attributes(),
              table.NumPossibleTuples());

  // 2. Build the store: one summary per top-ranked correlated pair
  // (excluding the near-uniform flight date), solved in parallel.
  auto date_attr = table.schema().IndexOf("fl_date");
  StoreOptions opts;
  opts.num_summaries = 2;
  opts.total_budget = 600;  // 300 2-D statistics per pair
  opts.exclude = {*date_attr};
  auto store_r = SourceStore::Build(table, opts);
  if (!store_r.ok()) {
    std::fprintf(stderr, "build: %s\n", store_r.status().ToString().c_str());
    return 1;
  }
  auto store = *store_r;
  for (size_t k = 0; k < store->size(); ++k) {
    const ScoredPair& pair = store->entry(k).pairs.front();
    const auto& report = store->summary(k).solver_report();
    std::printf(
        "summary %zu: (%s, %s) V = %.3f — %zu groups, solved in %zu "
        "iterations (err %.2e)\n",
        k, table.schema().attribute(pair.a).name.c_str(),
        table.schema().attribute(pair.b).name.c_str(), pair.cramers_v,
        store->summary(k).polynomial().NumGroups(), report.iterations,
        report.final_error);
  }

  // 3. Serve it: the engine routes each query to the summary whose modeled
  // correlations cover it.
  auto engine = EntropyEngine::FromStore(store);

  // 4. Ask exploratory questions; compare with the exact scan.
  ExactEvaluator exact(table);
  struct Example {
    const char* label;
    Result<CountingQuery> query;
  } examples[] = {
      {"flights from S0",
       QueryBuilder(table).WhereEquals("origin", Value(std::string("S0"))).Build()},
      {"flights from S0 to S17",
       QueryBuilder(table)
           .WhereEquals("origin", Value(std::string("S0")))
           .WhereEquals("dest", Value(std::string("S17")))
           .Build()},
      {"mid-range flights (500-1000 miles)",
       QueryBuilder(table).WhereBetween("distance", 500, 1000).Build()},
      {"long flights shorter than 2 hours (rare)",
       QueryBuilder(table)
           .WhereBetween("distance", 1500, 3000)
           .WhereBetween("fl_time", 15, 120)
           .Build()},
  };

  std::printf("\n%-42s %12s %12s %10s %8s\n", "query", "true", "estimate",
              "stddev", "routed");
  for (auto& ex : examples) {
    if (!ex.query.ok()) {
      std::fprintf(stderr, "query build: %s\n",
                   ex.query.status().ToString().c_str());
      return 1;
    }
    RouteDecision dec;
    auto est = engine->Answer(*ex.query, &dec);
    if (!est.ok()) {
      std::fprintf(stderr, "answer: %s\n", est.status().ToString().c_str());
      return 1;
    }
    uint64_t truth = exact.Count(*ex.query);
    std::printf("%-42s %12llu %12.1f %10.1f %5zu%s\n", ex.label,
                static_cast<unsigned long long>(truth), est->expectation,
                est->StdDev(), dec.index, dec.fallback ? "*" : "");
  }
  std::printf("(* = fallback: no summary models the queried pair)\n");
  return 0;
}
