// Figure 4: cost-model validation on Query 0 (1:1 joins with random
// endpoints), sigma_st = 20%, w = 3, 100-node network. The join nodes are
// optimized for each of the five assumed sigma_s:sigma_t ratios while the
// data is generated with each of the five true ratios; the diagonal (true
// estimates, marked '*') should give the lowest traffic of each row.

#include "bench/bench_util.h"
#include "bench/estimate_matrix.h"

using namespace aspen;
using namespace aspen::benchutil;

int main() {
  PrintHeader("Figure 4",
              "Cost-model validation: Query 0, sigma_st=20%, w=3, Innet");
  net::Topology topo = PaperTopology();
  RunEstimateMatrix(
      [&](const workload::SelectivityParams& truth, uint64_t seed) {
        return workload::Workload::MakeQuery0(&topo, truth, /*num_pairs=*/25,
                                              /*window=*/3, seed);
      },
      AlgoSpec{join::Algorithm::kInnet, join::InnetFeatures::None()},
      /*sigma_st=*/0.2, FromEnv(Env::kCycles, 100), /*learning=*/false);
  return 0;
}
