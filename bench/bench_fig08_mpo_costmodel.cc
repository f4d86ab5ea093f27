// Figure 8: MPO cost-model validation with Innet-cmpg.
// (a) Query 1 (uniform non-1:1), sigma_st = 5%, w = 3.
// (b) Query 2 (perimeter), sigma_st = 10%, w = 1.
// Correct estimates (diagonal, '*') should produce the best plans; ballpark
// estimates stay reasonable while badly wrong ones get expensive.

#include "bench/bench_util.h"
#include "bench/estimate_matrix.h"

using namespace aspen;
using namespace aspen::benchutil;

int main() {
  PrintHeader("Figure 8", "MPO cost-model validation, Innet-cmpg");
  net::Topology topo = PaperTopology();
  AlgoSpec cmpg{join::Algorithm::kInnet, join::InnetFeatures::Cmpg()};

  std::printf("\n(a) Query 1, sigma_st=5%%, w=3\n");
  RunEstimateMatrix(
      [&](const workload::SelectivityParams& truth, uint64_t seed) {
        return workload::Workload::MakeQuery1(&topo, truth, 3, seed);
      },
      cmpg, 0.05, FromEnv(Env::kCycles, 100), /*learning=*/false);

  std::printf("\n(b) Query 2, sigma_st=10%%, w=1\n");
  RunEstimateMatrix(
      [&](const workload::SelectivityParams& truth, uint64_t seed) {
        return workload::Workload::MakeQuery2(&topo, truth, 1, seed);
      },
      cmpg, 0.10, FromEnv(Env::kCycles, 100), /*learning=*/false);
  return 0;
}
