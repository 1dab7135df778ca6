// Reproduces Fig 5: per-template query error difference between every
// method and Ent1&2&3 over FlightsCoarse (positive bar = Ent1&2&3 better),
// for heavy hitters (top panel) and light hitters (bottom panel).
//
// Methods (Sec 6.2 / Fig 4): Uni (1% uniform), Strat1..Strat4 (stratified on
// pair 1..4), Ent1&2, Ent3&4, and the Ent1&2&3 reference.
// Query templates:
//   Q1: OB & DB          (pair 4)
//   Q2: DB & ET & DT     (pairs 2 & 3)
//   Q3: FL & DB & DT     (pair 2)
// The paper reports the FlightsFine run shows identical trends (graph
// omitted there); pass ENTROPYDB_BENCH_FINE=1 to run it here.
//
// Every difference is a gate row. Two of the paper's orderings are
// enforced, per dataset: on every light-hitter template Ent1&2&3 beats
// Uni, and on heavy-hitter Q1 (no statistic on pair 4) every sample beats
// Ent1&2&3; the other rows are recorded. The orderings invert at small
// scales (ENTROPYDB_BENCH_SCALE=0.05), so the gate runs at the default
// one. --gate_out FILE writes the rows for tools/check_perf_gate.py.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "bench_util.h"

using namespace entropydb;
using namespace entropydb::bench;

namespace {

int RunDataset(bool fine, const BenchScale& scale, GateRows* gate) {
  FlightsConfig cfg;
  cfg.num_rows = scale.flights_rows;
  cfg.fine_grained = fine;
  cfg.seed = 42;
  auto table_r = FlightsGenerator::Generate(cfg);
  if (!table_r.ok()) {
    std::fprintf(stderr, "%s\n", table_r.status().ToString().c_str());
    return 1;
  }
  const Table& table = **table_r;
  FlightsPairs pairs = ResolveFlightsPairs(table);

  std::printf("\n-- dataset: %s, %zu rows --\n",
              fine ? "FlightsFine" : "FlightsCoarse", table.num_rows());
  std::printf(
      "Fig 4 configurations: Ent1&2 = pairs (origin,distance)+(dest,"
      "distance) @%zu buckets each;\n  Ent3&4 = (fl_time,distance)+(origin,"
      "dest) @%zu; Ent1&2&3 = pairs 1,2,3 @%zu each\n",
      scale.bs_two_pair, scale.bs_two_pair, scale.bs_three_pair);

  auto summaries_r = BuildFlightsSummaries(table, scale);
  if (!summaries_r.ok()) {
    std::fprintf(stderr, "summaries: %s\n",
                 summaries_r.status().ToString().c_str());
    return 1;
  }
  auto& summaries = *summaries_r;

  // Samples: uniform plus one stratified per Fig 4 pair.
  auto uni = UniformSampler::Create(table, scale.sample_fraction, 7);
  if (!uni.ok()) return 1;
  std::vector<Method> methods;
  methods.push_back(
      SampleMethod("Uni", std::make_shared<WeightedSample>(std::move(*uni))));
  for (int p = 1; p <= 4; ++p) {
    auto [a, b] = pairs.pair(p);
    auto strat =
        StratifiedSampler::Create(table, a, b, scale.sample_fraction, 7 + p);
    if (!strat.ok()) return 1;
    methods.push_back(
        SampleMethod("Strat" + std::to_string(p),
                     std::make_shared<WeightedSample>(std::move(*strat))));
  }
  const size_t num_samples = methods.size();
  methods.push_back(SummaryMethod("Ent1&2", summaries.ent12));
  methods.push_back(SummaryMethod("Ent3&4", summaries.ent34));
  Method reference = SummaryMethod("Ent1&2&3", summaries.ent123);

  struct Template {
    std::string id;
    const char* label;
    std::vector<AttrId> attrs;
  };
  // The paper's Fig 5 uses different templates for the two panels.
  const std::vector<Template> heavy_templates = {
      {"Q1", "OB&DB (pair 4)", {pairs.origin, pairs.dest}},
      {"Q2", "DB&ET&DT (pair 2&3)", {pairs.dest, pairs.time, pairs.distance}},
      {"Q3", "FL&DB&DT (pair 2)", {pairs.date, pairs.dest, pairs.distance}},
  };
  const std::vector<Template> light_templates = {
      {"Q1", "ET&DT (pair 3)", {pairs.time, pairs.distance}},
      {"Q2", "DB&DT (pair 2)", {pairs.dest, pairs.distance}},
      {"Q3", "FL&DB&DT (pair 2)", {pairs.date, pairs.dest, pairs.distance}},
  };

  WorkloadConfig wcfg;
  wcfg.num_heavy = 100;
  wcfg.num_light = 100;
  wcfg.num_nonexistent = 0;

  for (bool heavy : {true, false}) {
    const std::string panel = heavy ? "heavy" : "light";
    std::printf("\n[%s hitters] error difference vs Ent1&2&3 "
                "(positive = Ent1&2&3 better)\n", panel.c_str());
    std::printf("%-26s", "template");
    for (const auto& m : methods) std::printf(" %9s", m.name.c_str());
    std::printf(" | %9s\n", "Ent123err");
    for (const auto& t : heavy ? heavy_templates : light_templates) {
      auto w = SelectWorkload(table, t.attrs, wcfg);
      if (!w.ok()) return 1;
      const auto& points = heavy ? w->heavy : w->light;
      double ref_err =
          AvgErrorOn(reference, table.num_attributes(), t.attrs, points);
      const std::string row = std::string(fine ? "fine." : "coarse.") +
                              panel + "." + t.id + ".";
      std::printf("%s: %-22s", t.id.c_str(), t.label);
      double worst_sample_lead = std::numeric_limits<double>::infinity();
      for (size_t i = 0; i < methods.size(); ++i) {
        const Method& m = methods[i];
        const double diff =
            AvgErrorOn(m, table.num_attributes(), t.attrs, points) - ref_err;
        std::printf(" %+9.3f", diff);
        if (!heavy && m.name == "Uni") {
          gate->Enforce(row + m.name, diff, ">", 0.0);
        } else {
          gate->Record(row + m.name, diff);
        }
        if (i < num_samples) {
          worst_sample_lead = std::min(worst_sample_lead, -diff);
        }
      }
      std::printf(" | %9.3f\n", ref_err);
      gate->Record(row + "Ent1&2&3_err", ref_err);
      if (heavy && t.id == "Q1") {
        gate->Enforce(row + "worst_sample_lead", worst_sample_lead, ">", 0.0);
      }
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  GateRows gate(&argc, argv);
  BenchScale scale = ReadScale();
  PrintHeader("Fig 5: query error difference vs Ent1&2&3");
  if (RunDataset(/*fine=*/false, scale, &gate) != 0) return 1;
  const char* fine_env = std::getenv("ENTROPYDB_BENCH_FINE");
  if (fine_env != nullptr && fine_env[0] == '1') {
    if (RunDataset(/*fine=*/true, scale, &gate) != 0) return 1;
  } else {
    std::printf(
        "\n(FlightsFine run skipped; set ENTROPYDB_BENCH_FINE=1 — the paper "
        "reports identical trends.)\n");
  }
  std::printf(
      "\npaper shape: samples beat Ent1&2&3 on Q1 heavy (no statistic on "
      "pair 4);\nEnt1&2&3 comparable or better on Q2/Q3; on light hitters "
      "EntropyDB beats Uni\neverywhere and loses only to the stratification "
      "aligned with the query.\n");
  return gate.Write() ? 0 : 1;
}
