// Ablation for the Sec 4.3 design choice illustrated by Fig 2(a): the
// modified KD-tree splits on the minimum-SSE value instead of the median.
// We build COMPOSITE summaries under both split rules and compare accuracy
// on heavy / light / nonexistent (fl_time, distance) points, plus the two
// pair-selection strategies of Sec 4.3 (correlation-only vs attribute
// cover, the Ent1&2-vs-Ent3&4 contrast of Sec 6.4).
//
// --gate_out FILE writes the rows for tools/check_perf_gate.py: min-SSE's
// light-hitter error is below the median split's at every budget. At 250
// the median split has the lower nonexistent error (docs/ESTIMATORS.md),
// so the nonexistent rows are recorded, not enforced.

#include <cstdio>
#include <map>

#include "bench_util.h"

using namespace entropydb;
using namespace entropydb::bench;

int main(int argc, char** argv) {
  GateRows gate(&argc, argv);
  BenchScale scale = ReadScale();
  PrintHeader("Ablation: KD split rule and pair-selection strategy");

  FlightsConfig cfg;
  cfg.num_rows = scale.flights_rows;
  cfg.seed = 42;
  auto full = FlightsGenerator::Generate(cfg);
  if (!full.ok()) return 1;
  FlightsPairs pairs = ResolveFlightsPairs(**full);
  auto table = ProjectTable(**full, {pairs.date, pairs.time, pairs.distance});
  const AttrId kTime = 1, kDist = 2;

  WorkloadConfig wcfg;
  wcfg.num_heavy = 100;
  wcfg.num_light = 100;
  wcfg.num_nonexistent = 200;
  auto w = SelectWorkload(*table, {kTime, kDist}, wcfg);
  if (!w.ok()) return 1;

  std::printf("\nKD split rule (COMPOSITE on (ET, DT)):\n");
  std::printf("%-10s %-8s %12s %12s %12s %10s\n", "rule", "budget",
              "heavy_err", "light_err", "nonexist", "groups");
  std::map<size_t, double> minsse_light;
  for (auto rule : {KdSplitRule::kMinSse, KdSplitRule::kMedian}) {
    for (size_t budget : {250u, 500u, 1000u}) {
      StatisticSelector sel(SelectionHeuristic::kComposite, rule);
      auto stats = sel.Select(*table, kTime, kDist, budget);
      auto summary = EntropySummary::Build(*table, stats);
      if (!summary.ok()) return 1;
      Method m = SummaryMethod("kd", *summary);
      const bool minsse = rule == KdSplitRule::kMinSse;
      const double heavy = AvgErrorOn(m, 3, w->attrs, w->heavy);
      const double light = AvgErrorOn(m, 3, w->attrs, w->light);
      const double nulls = AvgErrorOn(m, 3, w->attrs, w->nonexistent);
      std::printf("%-10s %-8zu %12.3f %12.3f %12.3f %10zu\n",
                  minsse ? "min-SSE" : "median", budget, heavy, light, nulls,
                  (*summary)->polynomial().NumGroups());
      const std::string row = std::string("kd.") +
                              (minsse ? "minsse." : "median.") +
                              std::to_string(budget) + ".";
      gate.Record(row + "heavy", heavy);
      gate.Record(row + "light", light);
      gate.Record(row + "nonexistent", nulls);
      if (minsse) {
        minsse_light[budget] = light;
      } else {
        gate.Enforce("kd.minsse." + std::to_string(budget) +
                         ".light_lead_over_median",
                     light - minsse_light[budget], ">", 0.0);
      }
    }
  }

  // Pair-selection strategy ablation on the full 5-attribute table.
  std::printf("\nPair selection with Ba = 2 (on FlightsCoarse):\n");
  auto ranked = PairSelector::RankPairs(**full, {pairs.date});
  for (auto strategy :
       {PairStrategy::kCorrelationOnly, PairStrategy::kAttributeCover}) {
    auto chosen = PairSelector::Choose(ranked, 2, strategy);
    std::printf("  %-16s picks:",
                strategy == PairStrategy::kCorrelationOnly ? "correlation"
                                                           : "cover");
    StatisticSelector sel(SelectionHeuristic::kComposite);
    std::vector<MultiDimStatistic> stats;
    for (const auto& pr : chosen) {
      std::printf(" (%s,%s)",
                  (*full)->schema().attribute(pr.a).name.c_str(),
                  (*full)->schema().attribute(pr.b).name.c_str());
      auto s = sel.Select(**full, pr.a, pr.b, scale.bs_two_pair);
      stats.insert(stats.end(), s.begin(), s.end());
    }
    auto summary = EntropySummary::Build(**full, stats);
    if (!summary.ok()) return 1;
    Method m = SummaryMethod("pairsel", *summary);
    // Evaluate across all six core 2-attribute templates.
    const AttrId core[] = {pairs.origin, pairs.dest, pairs.time,
                           pairs.distance};
    double heavy = 0.0, fm = 0.0;
    int templates = 0;
    for (int i = 0; i < 4; ++i) {
      for (int j = i + 1; j < 4; ++j) {
        auto wf = SelectWorkload(**full, {core[i], core[j]}, wcfg);
        if (!wf.ok()) return 1;
        heavy += AvgErrorOn(m, 5, wf->attrs, wf->heavy);
        fm += FMeasureOn(m, 5, wf->attrs, wf->light, wf->nonexistent);
        ++templates;
      }
    }
    std::printf(" -> heavy_err %.3f, F %.3f\n", heavy / templates,
                fm / templates);
  }
  std::printf(
      "\npaper shape: min-SSE below the median rule on light/nonexistent "
      "error\nat equal budget (Fig 2a's motivation). For pair selection the "
      "paper's\nevidence is the Fig 8 Ent3&4-vs-Ent1&2 contrast (cover wins "
      "on\nF-measure); with Ba = 2 both strategies share (fl_time,distance) "
      "and\nthe gap is within noise here — see bench_fig8_selection for the "
      "full\ncomparison.\n");
  return gate.Write() ? 0 : 1;
}
