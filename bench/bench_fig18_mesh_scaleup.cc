// Figure 18: mesh-network scale-up — path length and per-path-normalized
// maximum node load for 1/2/3-tree routing on 50-, 100- and 200-node medium
// (~8-neighbor) topologies. Path quality should hold steady as the network
// grows.

#include "bench/bench_util.h"
#include "bench/path_quality.h"

using namespace aspen;
using namespace aspen::benchutil;

int main() {
  PrintHeader("Figure 18", "Mesh scale-up: 50/100/200-node medium topologies");
  core::Table len({"network", "1 Tree", "2 Trees", "3 Trees"});
  core::Table load({"network", "1-tree", "2-tree", "3-tree"});
  const int runs = FromEnv(Env::kRuns, 3);
  for (int n : {50, 100, 200}) {
    double l1 = 0, l2 = 0, l3 = 0, m1 = 0, m2 = 0, m3 = 0;
    for (int r = 0; r < runs; ++r) {
      net::Topology topo =
          OrDie(net::Topology::Random(n, 8.0, 91 + r));
      auto q1 = TreesQuality(topo, 1);
      auto q2 = TreesQuality(topo, 2);
      auto q3 = TreesQuality(topo, 3);
      l1 += q1.avg_len; l2 += q2.avg_len; l3 += q3.avg_len;
      m1 += q1.max_load_per_path; m2 += q2.max_load_per_path;
      m3 += q3.max_load_per_path;
    }
    std::string label = std::to_string(n) + "-node Medium";
    len.AddRow({label, core::Fixed(l1 / runs, 2), core::Fixed(l2 / runs, 2),
                core::Fixed(l3 / runs, 2)});
    load.AddRow({label, core::Fixed(m1 / runs, 3), core::Fixed(m2 / runs, 3),
                 core::Fixed(m3 / runs, 3)});
  }
  std::printf("(a) Average path length (hops)\n");
  len.Print();
  std::printf("\n(b) Max node load (normalized per path)\n");
  load.Print();
  return 0;
}
