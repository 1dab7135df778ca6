// Reproduces Fig 2(b): query accuracy vs statistic budget for the three 2-D
// statistic selection heuristics (ZERO / LARGE / COMPOSITE).
//
// Setup follows Sec 4.3: flights restricted to (fl_date, fl_time, distance);
// 2-D statistics gathered on (fl_time, distance) with budgets {500, 1000,
// 2000}; accuracy measured on 100 heavy hitters (b.i), 200 nonexistent
// values (b.ii), and 100 light hitters (b.iii) of the pair.
//
// --gate_out FILE writes the rows for tools/check_perf_gate.py: COMPOSITE's
// light-hitter error is below ZERO's at every budget, and at 2000 COMPOSITE
// has zero error on all three classes. ZERO is not best on nonexistent
// values here (docs/ESTIMATORS.md), so that row is recorded, not enforced.

#include <cstdio>

#include "bench_util.h"

using namespace entropydb;
using namespace entropydb::bench;

int main(int argc, char** argv) {
  GateRows gate(&argc, argv);
  BenchScale scale = ReadScale();
  PrintHeader("Fig 2(b): selection heuristic vs budget, flights (FD,ET,DT)");

  FlightsConfig cfg;
  cfg.num_rows = scale.flights_rows;
  cfg.seed = 42;
  auto full = FlightsGenerator::Generate(cfg);
  if (!full.ok()) {
    std::fprintf(stderr, "%s\n", full.status().ToString().c_str());
    return 1;
  }
  FlightsPairs pairs = ResolveFlightsPairs(**full);
  auto table =
      ProjectTable(**full, {pairs.date, pairs.time, pairs.distance});
  const AttrId kTime = 1, kDist = 2;

  // There are 62 * 81 = 5022 possible (fl_time, distance) cells (Sec 4.3).
  ExactEvaluator exact(*table);
  auto hist2d = exact.Histogram2D(kTime, kDist);
  size_t existing = 0;
  for (auto c : hist2d) existing += (c > 0) ? 1 : 0;
  std::printf("possible 2-D cells: %zu, existing: %zu (paper: 5022 / 1334)\n",
              hist2d.size(), existing);

  WorkloadConfig wcfg;
  wcfg.num_heavy = 100;
  wcfg.num_light = 100;
  wcfg.num_nonexistent = 200;
  auto w = SelectWorkload(*table, {kTime, kDist}, wcfg);
  if (!w.ok()) {
    std::fprintf(stderr, "%s\n", w.status().ToString().c_str());
    return 1;
  }

  const size_t budgets[] = {500, 1000, 2000};
  const SelectionHeuristic heuristics[] = {
      SelectionHeuristic::kZeroSingleCell,
      SelectionHeuristic::kLargeSingleCell, SelectionHeuristic::kComposite};

  std::printf("\n%-10s %-10s %14s %14s %14s\n", "heuristic", "budget",
              "heavy_err(i)", "nonexist(ii)", "light_err(iii)");
  double zero_light[3] = {0, 0, 0};
  for (auto h : heuristics) {
    for (size_t b = 0; b < 3; ++b) {
      const size_t budget = budgets[b];
      StatisticSelector sel(h);
      auto stats = sel.Select(*table, kTime, kDist, budget);
      auto summary = EntropySummary::Build(*table, stats);
      if (!summary.ok()) {
        std::fprintf(stderr, "build %s/%zu: %s\n", SelectionHeuristicName(h),
                     budget, summary.status().ToString().c_str());
        return 1;
      }
      Method m = SummaryMethod(SelectionHeuristicName(h), *summary);
      double heavy = AvgErrorOn(m, 3, w->attrs, w->heavy);
      double nulls = AvgErrorOn(m, 3, w->attrs, w->nonexistent);
      double light = AvgErrorOn(m, 3, w->attrs, w->light);
      std::printf("%-10s %-10zu %14.3f %14.3f %14.3f\n",
                  SelectionHeuristicName(h), budget, heavy, nulls, light);
      const std::string row = std::string("fig2.") +
                              SelectionHeuristicName(h) + "." +
                              std::to_string(budget) + ".";
      const bool composite = h == SelectionHeuristic::kComposite;
      for (const auto& [name, err] : {std::pair{"heavy", heavy},
                                      {"nonexistent", nulls},
                                      {"light", light}}) {
        if (composite && budget == 2000) {
          gate.Enforce(row + name, err, "==", 0.0);
        } else {
          gate.Record(row + name, err);
        }
      }
      if (h == SelectionHeuristic::kZeroSingleCell) zero_light[b] = light;
      if (composite) {
        gate.Enforce(row + "light_lead_over_ZERO", zero_light[b] - light, ">",
                     0.0);
      }
    }
  }
  std::printf(
      "\npaper shape: LARGE/COMPOSITE ~0 error on heavy hitters; ZERO best\n"
      "on nonexistent; COMPOSITE best overall across all three classes.\n");
  return gate.Write() ? 0 : 1;
}
