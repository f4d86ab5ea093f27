// Figure 7: optimal (O) vs distributed (D) computation traffic across the
// five topologies, for 1:1 joins between 10 random pairs with sigma_s = 1,
// sigma_t = sigma_st = 0. With only s's stream moving, per-cycle traffic is
// the path length from each s to its chosen join point: the oracle uses
// true shortest paths; the distributed scheme uses the best path its
// multi-tree exploration discovered. The paper finds D within 3% of O.

#include "bench/bench_util.h"
#include "opt/centralized.h"
#include "routing/multi_tree.h"

using namespace aspen;
using namespace aspen::benchutil;

int main() {
  PrintHeader("Figure 7", "Optimal vs distributed placement traffic");
  const int runs = FromEnv(Env::kRuns, 5);
  core::Table table(
      {"topology", "Optimal (hops/cycle)", "Distributed (hops/cycle)",
       "D/O"});
  const net::TopologyKind kinds[] = {
      net::TopologyKind::kDenseRandom, net::TopologyKind::kMediumRandom,
      net::TopologyKind::kModerateRandom, net::TopologyKind::kSparseRandom,
      net::TopologyKind::kGrid};
  for (auto kind : kinds) {
    double opt_hops = 0, dist_hops = 0;
    for (int r = 0; r < runs; ++r) {
      net::Topology topo = OrDie(net::Topology::Make(kind, 100, 5 + r));
      workload::SelectivityParams sel{1.0, 1.0, 0.2};  // pair structure only
      auto wl =
          OrDie(workload::Workload::MakeQuery0(&topo, sel, 10, 1, 11 + r));
      routing::MultiTreeOptions mt_opts;
      routing::MultiTree multi(&topo, mt_opts);
      routing::IndexedAttribute attr;
      attr.name = "pair";
      const workload::Workload* wlp = &wl;
      attr.value_fn = [wlp](net::NodeId id) {
        return wlp->statics().tuple(id)[query::kAttrNameId];
      };
      int attr_idx = OrDie(multi.IndexAttribute(attr));
      for (const auto& [s, t] : wl.AllJoinPairs()) {
        // Oracle: the true shortest path carries s's stream to t.
        opt_hops += static_cast<double>(topo.ShortestPath(s, t).size()) - 1;
        // Distributed: the best multi-tree-discovered path.
        auto found = multi.FindMatches(
            s, attr_idx, wl.statics().tuple(s)[query::kAttrNameId],
            [&, t = t](net::NodeId cand) { return cand == t; });
        size_t best = SIZE_MAX;
        for (const auto& fp : found) best = std::min(best, fp.path.size());
        if (best != SIZE_MAX) dist_hops += static_cast<double>(best) - 1;
      }
    }
    table.AddRow({net::TopologyKindName(kind),
                  core::Fixed(opt_hops / runs, 1),
                  core::Fixed(dist_hops / runs, 1),
                  core::Fixed(dist_hops / std::max(opt_hops, 1.0), 3)});
  }
  table.Print();
  return 0;
}
