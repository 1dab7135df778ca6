// Reproduces the compression numbers quoted in Sec 4.1 / 4.3 / 6.2:
//  - uncompressed SOP polynomial size (= |Tup|) vs the compressed
//    representation (paper: 4.4M terms vs ~9,000 at budget 2000);
//  - summary footprint vs the base table and a 1% sample (paper: 200 MB
//    summary vs 5 GB data vs ~100 MB sample).

#include <cstdio>

#include "bench_util.h"

using namespace entropydb;
using namespace entropydb::bench;

int main() {
  BenchScale scale = ReadScale();
  PrintHeader("Compression: polynomial and summary size (Sec 4.1/4.3/6.2)");

  FlightsConfig cfg;
  cfg.num_rows = scale.flights_rows;
  cfg.seed = 42;
  auto full = FlightsGenerator::Generate(cfg);
  if (!full.ok()) return 1;
  FlightsPairs pairs = ResolveFlightsPairs(**full);

  // Part 1: the Sec 4.3 experiment — 3-attribute projection, 2-D statistics
  // on (fl_time, distance) at growing budgets.
  auto table = ProjectTable(**full, {pairs.date, pairs.time, pairs.distance});
  std::printf(
      "\n(fl_date, fl_time, distance) projection; COMPOSITE on (ET, DT)\n");
  std::printf("%-8s %16s %16s %12s %12s\n", "budget", "uncompressed",
              "compressed", "groups", "max|S|");
  for (size_t budget : {500u, 1000u, 2000u}) {
    StatisticSelector sel(SelectionHeuristic::kComposite);
    auto stats = sel.Select(*table, 1, 2, budget);
    auto reg =
        VariableRegistry::Create({307, 62, 81},
                                 [&] {
                                   ExactEvaluator ev(*table);
                                   std::vector<std::vector<double>> t(3);
                                   for (AttrId a = 0; a < 3; ++a) {
                                     auto h = ev.Histogram1D(a);
                                     t[a].assign(h.begin(), h.end());
                                   }
                                   return t;
                                 }(),
                                 stats, static_cast<double>(table->num_rows()));
    if (!reg.ok()) return 1;
    auto poly = CompressedPolynomial::Build(*reg);
    if (!poly.ok()) return 1;
    std::printf("%-8zu %16.3g %16zu %12zu %12zu\n", budget,
                poly->UncompressedTermCount(), poly->CompressedSize(),
                poly->NumGroups(), poly->MaxSetSize());
  }
  std::printf("(paper at budget 2000: 4.4e6 uncompressed vs ~9000 "
              "compressed)\n");

  // Part 2: full summary vs data vs sample footprint.
  auto summaries = BuildFlightsSummaries(**full, scale);
  if (!summaries.ok()) return 1;
  auto uni = UniformSampler::Create(**full, scale.sample_fraction, 3);
  if (!uni.ok()) return 1;

  const std::string path = "/tmp/entropydb_compression_summary.edb";
  if (!summaries->ent123->Save(path).ok()) return 1;
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot reopen %s\n", path.c_str());
    return 1;
  }
  std::fseek(f, 0, SEEK_END);
  long file_bytes = std::ftell(f);
  std::fclose(f);
  std::remove(path.c_str());

  std::printf("\nfootprints (5-attribute FlightsCoarse, %zu rows):\n",
              (*full)->num_rows());
  std::printf("  %-28s %12.2f MB\n", "base table (encoded)",
              (*full)->MemoryBytes() / 1048576.0);
  std::printf("  %-28s %12.2f MB\n", "1% uniform sample",
              uni->MemoryBytes() / 1048576.0);
  std::printf("  %-28s %12.2f MB (file: %.2f MB)\n",
              "Ent1&2&3 summary (in-memory)",
              summaries->ent123->polynomial().MemoryBytes() / 1048576.0,
              file_bytes / 1048576.0);
  std::printf("  %-28s %12.3g\n", "|Tup| (uncompressed terms)",
              summaries->ent123->polynomial().UncompressedTermCount());
  std::printf("  %-28s %12zu\n", "compressed terms",
              summaries->ent123->polynomial().CompressedSize());
  std::printf(
      "\npaper shape: the persisted summary (statistics + solved variables) "
      "is\norders of magnitude below |Tup|, below the sample, and far below "
      "the\ndata. The in-memory figure additionally includes the "
      "inclusion-exclusion\ngroup closure and its per-code stab lists, "
      "both rebuilt from the file on\nload — the analogue of the paper "
      "storing variables in Postgres (600 KB)\nand the factorization "
      "separately (200 MB text).\n");
  return 0;
}
