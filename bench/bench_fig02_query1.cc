// Figure 2: Query 1 (uniform m:n join), w = 3, 100 sampling cycles, 100
// nodes — total traffic and base-station load across five sigma_s:sigma_t
// stages x sigma_st in {20%, 10%, 5%} for Naive, Base, GHT, Innet,
// Innet-cmg, Innet-cmpg.

#include "bench/bench_util.h"
#include "bench/ratio_sweep.h"

using namespace aspen;
using namespace aspen::benchutil;

int main() {
  PrintHeader("Figure 2", "Query 1, w=3, 100 nodes, mote network (bytes)");
  net::Topology topo = PaperTopology();
  RunRatioSweep(
      [&](const workload::SelectivityParams& p, uint64_t seed) {
        return workload::Workload::MakeQuery1(&topo, p, /*window=*/3, seed);
      },
      FromEnv(Env::kCycles, 100), /*mesh=*/false);
  return 0;
}
