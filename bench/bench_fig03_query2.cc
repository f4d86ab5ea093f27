// Figure 3: Query 2 (perimeter join, Query P), w = 1, 100 sampling cycles,
// 100 nodes — total traffic and base-station load across the selectivity
// grid for all six algorithms.

#include "bench/bench_util.h"
#include "bench/ratio_sweep.h"

using namespace aspen;
using namespace aspen::benchutil;

int main() {
  PrintHeader("Figure 3", "Query 2, w=1, 100 nodes, mote network (bytes)");
  net::Topology topo = PaperTopology();
  RunRatioSweep(
      [&](const workload::SelectivityParams& p, uint64_t seed) {
        return workload::Workload::MakeQuery2(&topo, p, /*window=*/1, seed);
      },
      FromEnv(Env::kCycles, 100), /*mesh=*/false);
  return 0;
}
