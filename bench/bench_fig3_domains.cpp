// Reproduces Fig 3: active domain sizes after binning, for FlightsCoarse,
// FlightsFine, and Particles.
//
// The generators are deterministic, so each dataset's |Tup| is an `==`
// gate row at the value they give today (the paper's 4.5e9, 3.3e10 and
// 5.0e8); each attribute's domain size is a recorded row. --gate_out FILE
// writes the rows for tools/check_perf_gate.py.

#include <cstdio>
#include <string>

#include "bench_util.h"

using namespace entropydb;
using namespace entropydb::bench;

namespace {

void PrintDomains(const char* title, const std::string& row,
                  const Table& table, double expected_tup, GateRows* gate) {
  std::printf("\n%s (%zu rows)\n", title, table.num_rows());
  std::printf("  %-12s %s\n", "attribute", "distinct values after binning");
  for (AttrId a = 0; a < table.num_attributes(); ++a) {
    const std::string& name = table.schema().attribute(a).name;
    std::printf("  %-12s %u\n", name.c_str(), table.domain(a).size());
    gate->Record(row + "domain." + name, table.domain(a).size());
  }
  std::printf("  %-12s %.2g\n", "|Tup|", table.NumPossibleTuples());
  gate->Enforce(row + "tup", table.NumPossibleTuples(), "==", expected_tup);
}

}  // namespace

int main(int argc, char** argv) {
  GateRows gate(&argc, argv);
  PrintHeader("Fig 3: active domain sizes");

  FlightsConfig coarse;
  coarse.num_rows = 50'000;  // domain sizes are row-count independent
  auto coarse_t = FlightsGenerator::Generate(coarse);

  FlightsConfig fine = coarse;
  fine.fine_grained = true;
  auto fine_t = FlightsGenerator::Generate(fine);

  ParticlesConfig pcfg;
  pcfg.rows_per_snapshot = 30'000;
  auto particles_t = ParticlesGenerator::Generate(pcfg);

  if (!coarse_t.ok() || !fine_t.ok() || !particles_t.ok()) {
    std::fprintf(stderr, "generation failed\n");
    return 1;
  }
  PrintDomains("FlightsCoarse", "coarse.", **coarse_t, 4'495'754'664.0,
               &gate);
  PrintDomains("FlightsFine", "fine.", **fine_t, 33'315'762'186.0, &gate);
  PrintDomains("Particles", "particles.", **particles_t, 502'761'168.0,
               &gate);
  std::printf(
      "\npaper: coarse |Tup| = 4.5e9, fine |Tup| = 3.3e10, particles |Tup| "
      "= 5.0e8\n");
  return gate.Write() ? 0 : 1;
}
