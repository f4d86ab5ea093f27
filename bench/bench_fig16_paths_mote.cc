// Figure 16: path quality on 100-node mote networks — average path length
// and maximum node load for 1/2/3-tree routing vs GPSR vs the full
// connectivity graph, across the five deployment densities. The multi-tree
// substrate should clearly beat single-tree and GPSR routing and approach
// the full-graph bound.

#include "bench/bench_util.h"
#include "bench/path_quality.h"

using namespace aspen;
using namespace aspen::benchutil;

int main() {
  PrintHeader("Figure 16", "Path quality, 100-node mote network");
  const net::TopologyKind kinds[] = {
      net::TopologyKind::kDenseRandom, net::TopologyKind::kMediumRandom,
      net::TopologyKind::kModerateRandom, net::TopologyKind::kSparseRandom,
      net::TopologyKind::kGrid};
  core::Table len({"topology", "1 Tree", "2 Trees", "3 Trees", "GPSR",
                   "Full graph"});
  core::Table load({"topology", "1 Tree", "2 Trees", "3 Trees", "GPSR"});
  const int runs = FromEnv(Env::kRuns, 3);
  for (auto kind : kinds) {
    double l1 = 0, l2 = 0, l3 = 0, lg = 0, lf = 0;
    double m1 = 0, m2 = 0, m3 = 0, mg = 0;
    for (int r = 0; r < runs; ++r) {
      net::Topology topo = OrDie(net::Topology::Make(kind, 100, 31 + r));
      auto q1 = TreesQuality(topo, 1);
      auto q2 = TreesQuality(topo, 2);
      auto q3 = TreesQuality(topo, 3);
      auto qg = GpsrQuality(topo);
      auto qf = BfsQuality(topo);
      l1 += q1.avg_len; l2 += q2.avg_len; l3 += q3.avg_len;
      lg += qg.avg_len; lf += qf.avg_len;
      m1 += q1.max_load_kpaths; m2 += q2.max_load_kpaths;
      m3 += q3.max_load_kpaths; mg += qg.max_load_kpaths;
    }
    len.AddRow({net::TopologyKindName(kind), core::Fixed(l1 / runs, 2),
                core::Fixed(l2 / runs, 2), core::Fixed(l3 / runs, 2),
                core::Fixed(lg / runs, 2), core::Fixed(lf / runs, 2)});
    load.AddRow({net::TopologyKindName(kind), core::Fixed(m1 / runs, 2),
                 core::Fixed(m2 / runs, 2), core::Fixed(m3 / runs, 2),
                 core::Fixed(mg / runs, 2)});
  }
  std::printf("(a) Average path length (hops), all node pairs\n");
  len.Print();
  std::printf("\n(b) Max node load (1000s of paths)\n");
  load.Print();
  return 0;
}
