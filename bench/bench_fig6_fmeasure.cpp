// Reproduces Fig 6: average F-measure for distinguishing light hitters from
// nonexistent values, over FlightsCoarse (left) and FlightsFine (right),
// for Uni, Strat1-4, Ent1&2, Ent3&4, Ent1&2&3.
//
// The paper averages over fifteen 2- and 3-dimensional templates on the
// statistic-covered attributes; we enumerate the same template family: all
// six pairs and four triples of {origin, dest, fl_time, distance} plus the
// five date-augmented triples.
//
// Each method's F-measure is a recorded gate row. The paper's ordering is
// an enforced one, per dataset: the worst Ent variant beats the best
// sample. It inverts at small scales (ENTROPYDB_BENCH_SCALE=0.05), so the
// gate runs at the default one. --gate_out FILE writes the rows for
// tools/check_perf_gate.py.

#include <algorithm>
#include <cstdio>
#include <limits>

#include "bench_util.h"

using namespace entropydb;
using namespace entropydb::bench;

namespace {

std::vector<std::vector<AttrId>> TemplateFamily(const FlightsPairs& p) {
  const AttrId core[] = {p.origin, p.dest, p.time, p.distance};
  std::vector<std::vector<AttrId>> out;
  // Six 2-D templates.
  for (int i = 0; i < 4; ++i) {
    for (int j = i + 1; j < 4; ++j) out.push_back({core[i], core[j]});
  }
  // Four 3-D templates.
  for (int i = 0; i < 4; ++i) {
    std::vector<AttrId> t;
    for (int j = 0; j < 4; ++j) {
      if (j != i) t.push_back(core[j]);
    }
    out.push_back(t);
  }
  // Five date-augmented templates (15 total, as in the paper).
  for (int i = 0; i < 4; ++i) out.push_back({p.date, core[i]});
  out.push_back({p.date, p.origin, p.dest});
  return out;
}

int RunDataset(bool fine, const BenchScale& scale, GateRows* gate) {
  FlightsConfig cfg;
  cfg.num_rows = scale.flights_rows;
  cfg.fine_grained = fine;
  cfg.seed = 42;
  auto table_r = FlightsGenerator::Generate(cfg);
  if (!table_r.ok()) return 1;
  const Table& table = **table_r;
  FlightsPairs pairs = ResolveFlightsPairs(table);

  auto summaries_r = BuildFlightsSummaries(table, scale);
  if (!summaries_r.ok()) {
    std::fprintf(stderr, "summaries: %s\n",
                 summaries_r.status().ToString().c_str());
    return 1;
  }
  auto& summaries = *summaries_r;

  auto uni = UniformSampler::Create(table, scale.sample_fraction, 11);
  if (!uni.ok()) return 1;
  std::vector<Method> methods;
  methods.push_back(
      SampleMethod("Uni", std::make_shared<WeightedSample>(std::move(*uni))));
  for (int p = 1; p <= 4; ++p) {
    auto [a, b] = pairs.pair(p);
    auto strat =
        StratifiedSampler::Create(table, a, b, scale.sample_fraction, 11 + p);
    if (!strat.ok()) return 1;
    methods.push_back(
        SampleMethod("Strat" + std::to_string(p),
                     std::make_shared<WeightedSample>(std::move(*strat))));
  }
  const size_t num_samples = methods.size();
  methods.push_back(SummaryMethod("Ent1&2", summaries.ent12));
  methods.push_back(SummaryMethod("Ent3&4", summaries.ent34));
  methods.push_back(SummaryMethod("Ent1&2&3", summaries.ent123));

  auto templates = TemplateFamily(pairs);
  WorkloadConfig wcfg;
  wcfg.num_heavy = 0;
  wcfg.num_light = 100;
  wcfg.num_nonexistent = 100;

  std::vector<double> sums(methods.size(), 0.0);
  std::vector<size_t> counts(methods.size(), 0);
  for (const auto& attrs : templates) {
    auto w = SelectWorkload(table, attrs, wcfg);
    if (!w.ok()) return 1;
    if (w->light.empty() || w->nonexistent.empty()) continue;
    for (size_t m = 0; m < methods.size(); ++m) {
      sums[m] += FMeasureOn(methods[m], table.num_attributes(), attrs,
                            w->light, w->nonexistent);
      ++counts[m];
    }
  }

  std::printf("\n-- %s: avg F-measure over %zu templates --\n",
              fine ? "FlightsFine" : "FlightsCoarse", templates.size());
  const std::string dataset = fine ? "fine." : "coarse.";
  double best_sample = -std::numeric_limits<double>::infinity();
  double worst_ent = std::numeric_limits<double>::infinity();
  for (size_t m = 0; m < methods.size(); ++m) {
    const double f = counts[m] ? sums[m] / counts[m] : 0.0;
    std::printf("  %-10s %.3f\n", methods[m].name.c_str(), f);
    gate->Record(dataset + methods[m].name, f);
    if (m < num_samples) {
      best_sample = std::max(best_sample, f);
    } else {
      worst_ent = std::min(worst_ent, f);
    }
  }
  gate->Enforce(dataset + "worst_ent_lead", worst_ent - best_sample, ">",
                0.0);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  GateRows gate(&argc, argv);
  BenchScale scale = ReadScale();
  PrintHeader("Fig 6: F-measure, light hitters vs nonexistent values");
  if (RunDataset(false, scale, &gate) != 0) return 1;
  if (RunDataset(true, scale, &gate) != 0) return 1;
  std::printf(
      "\npaper shape: Ent1&2 and Ent3&4 highest (~0.72), Ent1&2&3 close\n"
      "(~0.69), all EntropyDB variants above Uni and most stratified "
      "samples.\n");
  return gate.Write() ? 0 : 1;
}
