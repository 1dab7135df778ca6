#include "bench_util.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <benchmark/benchmark.h>

namespace entropydb {
namespace bench {

void ApplyQuickFlag(int* argc, char** argv) {
  int out = 1;
  bool quick = false;
  for (int i = 1; i < *argc; ++i) {
    if (std::string(argv[i]) == "--quick") {
      quick = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  if (quick) {
    // 0 = don't overwrite an explicit scale from the caller.
    setenv("ENTROPYDB_BENCH_SCALE", "0.05", 0);
  }
}

BenchScale ReadScale() {
  BenchScale s;
  const char* env = std::getenv("ENTROPYDB_BENCH_SCALE");
  if (env != nullptr) {
    double f = std::atof(env);
    if (f > 0) {
      s.flights_rows = static_cast<size_t>(s.flights_rows * f);
      s.particle_rows_per_snapshot =
          static_cast<size_t>(s.particle_rows_per_snapshot * f);
      s.bs_two_pair = static_cast<size_t>(s.bs_two_pair * f);
      s.bs_three_pair = static_cast<size_t>(s.bs_three_pair * f);
    }
  }
  return s;
}

std::pair<AttrId, AttrId> FlightsPairs::pair(int which) const {
  switch (which) {
    case 1:
      return {origin, distance};
    case 2:
      return {dest, distance};
    case 3:
      return {time, distance};
    default:
      return {origin, dest};
  }
}

FlightsPairs ResolveFlightsPairs(const Table& table) {
  FlightsPairs p;
  p.date = *table.schema().IndexOf("fl_date");
  p.origin = *table.schema().IndexOf("origin");
  p.dest = *table.schema().IndexOf("dest");
  p.time = *table.schema().IndexOf("fl_time");
  p.distance = *table.schema().IndexOf("distance");
  return p;
}

Result<FlightsSummaries> BuildFlightsSummaries(const Table& table,
                                               const BenchScale& scale) {
  FlightsPairs pairs = ResolveFlightsPairs(table);
  StatisticSelector sel(SelectionHeuristic::kComposite);
  auto stats_for = [&](std::vector<int> which, size_t per_pair) {
    std::vector<MultiDimStatistic> stats;
    for (int w : which) {
      auto [a, b] = pairs.pair(w);
      auto s = sel.Select(table, a, b, per_pair);
      stats.insert(stats.end(), s.begin(), s.end());
    }
    return stats;
  };

  FlightsSummaries out;
  ASSIGN_OR_RETURN(out.no2d, EntropySummary::Build(table, {}));
  ASSIGN_OR_RETURN(out.ent12, EntropySummary::Build(
                                  table, stats_for({1, 2}, scale.bs_two_pair)));
  ASSIGN_OR_RETURN(out.ent34, EntropySummary::Build(
                                  table, stats_for({3, 4}, scale.bs_two_pair)));
  ASSIGN_OR_RETURN(
      out.ent123,
      EntropySummary::Build(table, stats_for({1, 2, 3}, scale.bs_three_pair)));
  return out;
}

Method SummaryMethod(std::string name,
                     std::shared_ptr<EntropySummary> summary) {
  return Method{std::move(name), [summary](const CountingQuery& q) {
                  auto est = summary->Answer(q);
                  return est.ok() ? est->expectation : 0.0;
                }};
}

Method SampleMethod(std::string name,
                    std::shared_ptr<WeightedSample> sample) {
  return Method{std::move(name), [sample](const CountingQuery& q) {
                  return SampleEstimator(*sample).Count(q).expectation;
                }};
}

double AvgErrorOn(const Method& method, size_t num_attrs,
                  const std::vector<AttrId>& attrs,
                  const std::vector<QueryPoint>& points) {
  std::vector<double> truths, ests;
  truths.reserve(points.size());
  ests.reserve(points.size());
  for (const auto& p : points) {
    auto q = PointQuery(num_attrs, attrs, p.key);
    truths.push_back(p.true_count);
    ests.push_back(std::round(method.answer(q)));
  }
  return AverageError(truths, ests);
}

double FMeasureOn(const Method& method, size_t num_attrs,
                  const std::vector<AttrId>& attrs,
                  const std::vector<QueryPoint>& light,
                  const std::vector<QueryPoint>& nulls) {
  std::vector<double> light_est, null_est;
  for (const auto& p : light) {
    light_est.push_back(method.answer(PointQuery(num_attrs, attrs, p.key)));
  }
  for (const auto& p : nulls) {
    null_est.push_back(method.answer(PointQuery(num_attrs, attrs, p.key)));
  }
  return ComputeFMeasure(light_est, null_est).f;
}

double AvgQuerySeconds(const Method& method, size_t num_attrs,
                       const std::vector<AttrId>& attrs,
                       const std::vector<QueryPoint>& points) {
  if (points.empty()) return 0.0;
  Timer timer;
  double sink = 0.0;
  for (const auto& p : points) {
    sink += method.answer(PointQuery(num_attrs, attrs, p.key));
  }
  double elapsed = timer.ElapsedSeconds();
  // Keep the optimizer honest.
  if (sink < -1.0) std::fprintf(stderr, "impossible\n");
  return elapsed / static_cast<double>(points.size());
}

std::shared_ptr<Table> ProjectTable(const Table& table,
                                    const std::vector<AttrId>& attrs) {
  std::vector<AttributeSpec> specs;
  for (AttrId a : attrs) specs.push_back(table.schema().attribute(a));
  TableBuilder builder{Schema(std::move(specs))};
  for (size_t i = 0; i < attrs.size(); ++i) {
    builder.SetDomain(static_cast<AttrId>(i), table.domain(attrs[i]));
  }
  std::vector<Code> row(attrs.size());
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t i = 0; i < attrs.size(); ++i) row[i] = table.at(r, attrs[i]);
    builder.AppendEncodedRow(row);
  }
  auto t = builder.Finish();
  return t.ok() ? *t : nullptr;
}

void PrintHeader(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

GateRows::GateRows(int* argc, char** argv) {
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strcmp(argv[i], "--gate_out") == 0 && i + 1 < *argc) {
      path_ = argv[++i];
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
}

void GateRows::Enforce(std::string metric, double value, const char* op,
                       double bar) {
  rows_.push_back(Row{std::move(metric), value, op, bar});
}

void GateRows::Record(std::string metric, double value) {
  rows_.push_back(Row{std::move(metric), value, "", 0.0});
}

namespace {

/// Shortest text that reads back as `v`, so the checker compares the very
/// doubles the bench measured; JSON has no literal for inf or NaN.
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  // Counts read as counts: 100000, not the shorter 1e+05.
  const auto res = std::abs(v) < 1e15 && v == std::trunc(v)
                       ? std::to_chars(buf, buf + sizeof(buf), v,
                                       std::chars_format::fixed)
                       : std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

}  // namespace

bool GateRows::Write() const {
  std::printf("gate rows:\n");
  for (const Row& r : rows_) {
    std::printf("  %-40s %12.6g", r.metric.c_str(), r.value);
    if (!r.op.empty()) std::printf("  %s %.6g", r.op.c_str(), r.bar);
    std::printf("\n");
  }
  if (path_.empty()) return true;
  FILE* out = std::fopen(path_.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write --gate_out file: %s\n", path_.c_str());
    return false;
  }
  std::fprintf(out, "{\"rows\": [");
  for (size_t i = 0; i < rows_.size(); ++i) {
    const Row& r = rows_[i];
    std::fprintf(out, "%s\n  {\"metric\": \"%s\", \"value\": %s",
                 i == 0 ? "" : ",", r.metric.c_str(),
                 JsonNumber(r.value).c_str());
    if (!r.op.empty()) {
      std::fprintf(out, ", \"op\": \"%s\", \"bar\": %s", r.op.c_str(),
                   JsonNumber(r.bar).c_str());
    }
    std::fprintf(out, "}");
  }
  std::fprintf(out, "\n]}\n");
  // A truncated gate file (full disk surfaces at flush/close) must fail
  // HERE, not as a JSON parse error in the gate step downstream.
  const bool write_failed = std::ferror(out) != 0;
  if (std::fclose(out) != 0 || write_failed) {
    std::fprintf(stderr, "write failure on --gate_out file: %s\n",
                 path_.c_str());
    return false;
  }
  return true;
}

std::pair<double, double> InterleavedMedianNs(
    const std::function<void()>& a, const std::function<void()>& b) {
  constexpr int kRounds = 15;
  auto time = [](const std::function<void()>& fn, size_t reps) {
    Timer timer;
    for (size_t rep = 0; rep < reps; ++rep) fn();
    return timer.ElapsedSeconds();
  };
  size_t reps = 1;
  while (time(a, reps) + time(b, reps) < 0.01 && reps < (1u << 20)) {
    reps *= 2;
  }
  std::vector<double> ta, tb;
  for (int round = 0; round < kRounds; ++round) {
    if (round % 2 == 0) ta.push_back(time(a, reps));
    tb.push_back(time(b, reps));
    if (round % 2 != 0) ta.push_back(time(a, reps));
  }
  std::sort(ta.begin(), ta.end());
  std::sort(tb.begin(), tb.end());
  const double per_call = 1e9 / static_cast<double>(reps);
  return {ta[kRounds / 2] * per_call, tb[kRounds / 2] * per_call};
}

int RunBenchmarks(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}

}  // namespace bench
}  // namespace entropydb
