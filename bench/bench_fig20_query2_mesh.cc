// Figure 20: Query 2 on a 100-node 802.11 mesh network, w = 1, 100 sampling
// cycles — message counts (Appendix F).

#include "bench/bench_util.h"
#include "bench/ratio_sweep.h"

using namespace aspen;
using namespace aspen::benchutil;

int main() {
  PrintHeader("Figure 20", "Query 2, w=1, 100-node mesh (messages)");
  net::Topology topo = PaperTopology();
  RunRatioSweep(
      [&](const workload::SelectivityParams& p, uint64_t seed) {
        return workload::Workload::MakeQuery2(&topo, p, /*window=*/1, seed);
      },
      FromEnv(Env::kCycles, 100), /*mesh=*/true);
  return 0;
}
