// Figure 19: Query 1 on a 100-node 802.11 mesh network, w = 3, 100 sampling
// cycles — message counts (Appendix F: link-layer overhead dominates, so
// messages, not bytes, are the cost unit; DHT replaces GHT; no path
// collapsing).

#include "bench/bench_util.h"
#include "bench/ratio_sweep.h"

using namespace aspen;
using namespace aspen::benchutil;

int main() {
  PrintHeader("Figure 19", "Query 1, w=3, 100-node mesh (messages)");
  net::Topology topo = PaperTopology();
  RunRatioSweep(
      [&](const workload::SelectivityParams& p, uint64_t seed) {
        return workload::Workload::MakeQuery1(&topo, p, /*window=*/3, seed);
      },
      FromEnv(Env::kCycles, 100), /*mesh=*/true);
  return 0;
}
