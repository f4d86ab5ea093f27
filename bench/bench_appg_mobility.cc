// Appendix G: mobile nodes. A leaf node of the medium random topology moves
// and re-attaches under a new parent; the summary structures of all its
// (old and new) ancestors in every routing tree must refresh. We measure
// the propagation traffic and the update delay in transmission cycles,
// averaged over candidate leaves. The paper reports ~19.4 cycles and ~1.2KB
// per move, supporting ~0.5 m/s mobility with 10m radio range.

#include "bench/bench_util.h"
#include "routing/multi_tree.h"
#include "routing/summary.h"

using namespace aspen;
using namespace aspen::benchutil;

int main() {
  PrintHeader("Appendix G", "Mobile leaf re-attachment cost");
  const int runs = FromEnv(Env::kRuns, 3);
  double total_bytes = 0, total_cycles = 0;
  int moves = 0;
  for (int r = 0; r < runs; ++r) {
    net::Topology topo =
        OrDie(net::Topology::Make(net::TopologyKind::kMediumRandom, 100,
                                  55 + r));
    routing::MultiTreeOptions opts;
    routing::MultiTree multi(&topo, opts);
    // Candidate mobile nodes: leaves in every tree (the paper constrains
    // mobile nodes to be topology leaves).
    for (net::NodeId u = 1; u < topo.num_nodes(); ++u) {
      bool leaf_everywhere = true;
      for (int t = 0; t < multi.num_trees(); ++t) {
        if (!multi.tree(t).ChildrenOf(u).empty()) leaf_everywhere = false;
      }
      if (!leaf_everywhere) continue;
      // Moving re-parents u in each tree: the summaries of the old ancestor
      // chain and the new ancestor chain must both refresh (one summary
      // message per ancestor edge), plus a beacon exchange at attach time.
      const int summary_bytes =
          routing::BloomSummary().SizeBytes() +
          net::WireFormat::kLinkHeaderBytes;
      int64_t bytes = 0;
      int cycles = 0;
      for (int t = 0; t < multi.num_trees(); ++t) {
        int depth = multi.tree(t).DepthOf(u);
        // Old chain invalidation + new chain propagation; the new parent is
        // a neighbor, so its depth differs by at most one.
        bytes += static_cast<int64_t>(summary_bytes) * (2 * depth);
        bytes += net::WireFormat::kLinkHeaderBytes + 6;  // attach beacon
        cycles = std::max(cycles, 2 * depth);
      }
      total_bytes += static_cast<double>(bytes);
      total_cycles += cycles;
      ++moves;
    }
  }
  if (moves == 0) {
    std::printf("no all-tree leaves found\n");
    return 1;
  }
  core::Table table({"metric", "mean per move"});
  table.AddRow({"update traffic", core::HumanBytes(total_bytes / moves)});
  table.AddRow({"propagation delay (tx cycles)",
                core::Fixed(total_cycles / moves, 1)});
  table.AddRow({"moves measured", std::to_string(moves)});
  table.Print();
  std::printf(
      "\nWith 10m radio range this supports ~10m per %.0f cycles of "
      "continuous connectivity.\n",
      total_cycles / moves);
  return 0;
}
