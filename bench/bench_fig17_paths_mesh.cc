// Figure 17: path quality on 100-node mesh networks — as Figure 16 but the
// hash-based comparison point is a DHT overlay instead of GPSR. DHT paths
// are slightly shorter than GPSR (no connectivity-gap boundary walking) but
// concentrate load at overlay relays.

#include "bench/bench_util.h"
#include "bench/path_quality.h"

using namespace aspen;
using namespace aspen::benchutil;

int main() {
  PrintHeader("Figure 17", "Path quality, 100-node mesh network");
  const net::TopologyKind kinds[] = {
      net::TopologyKind::kDenseRandom, net::TopologyKind::kMediumRandom,
      net::TopologyKind::kModerateRandom, net::TopologyKind::kSparseRandom,
      net::TopologyKind::kGrid};
  core::Table len({"topology", "1 Tree", "2 Trees", "3 Trees", "DHT"});
  core::Table load({"topology", "1-tree", "2-tree", "3-tree", "DHT"});
  const int runs = FromEnv(Env::kRuns, 3);
  for (auto kind : kinds) {
    double l1 = 0, l2 = 0, l3 = 0, ld = 0;
    double m1 = 0, m2 = 0, m3 = 0, md = 0;
    for (int r = 0; r < runs; ++r) {
      net::Topology topo = OrDie(net::Topology::Make(kind, 100, 77 + r));
      auto q1 = TreesQuality(topo, 1);
      auto q2 = TreesQuality(topo, 2);
      auto q3 = TreesQuality(topo, 3);
      auto qd = DhtQuality(topo);
      l1 += q1.avg_len; l2 += q2.avg_len; l3 += q3.avg_len; ld += qd.avg_len;
      m1 += q1.max_load_kpaths; m2 += q2.max_load_kpaths;
      m3 += q3.max_load_kpaths; md += qd.max_load_kpaths;
    }
    len.AddRow({net::TopologyKindName(kind), core::Fixed(l1 / runs, 2),
                core::Fixed(l2 / runs, 2), core::Fixed(l3 / runs, 2),
                core::Fixed(ld / runs, 2)});
    load.AddRow({net::TopologyKindName(kind), core::Fixed(m1 / runs, 2),
                 core::Fixed(m2 / runs, 2), core::Fixed(m3 / runs, 2),
                 core::Fixed(md / runs, 2)});
  }
  std::printf("(a) Average path length (hops)\n");
  len.Print();
  std::printf("\n(b) Max node load (1000s of paths)\n");
  load.Print();
  return 0;
}
