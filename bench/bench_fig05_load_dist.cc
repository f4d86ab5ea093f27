// Figure 5: load distribution — the 15 most-loaded nodes per algorithm on
// Query 1 (w=3, sigma_s=sigma_t=1/2, sigma_st=20%, 100 cycles). All
// strategies exhibit similar load-profile shapes; the absolute level ranks
// the algorithms.

#include "bench/bench_util.h"

using namespace aspen;
using namespace aspen::benchutil;

int main() {
  PrintHeader("Figure 5", "Load distribution: 15 most-loaded nodes (KB)");
  net::Topology topo = PaperTopology();
  workload::SelectivityParams sel{0.5, 0.5, 0.2};
  std::vector<AlgoSpec> algos = {
      {join::Algorithm::kNaive, {}},
      {join::Algorithm::kBase, {}},
      {join::Algorithm::kInnet, join::InnetFeatures::None()},
      {join::Algorithm::kInnet, join::InnetFeatures::Cm()},
      {join::Algorithm::kInnet, join::InnetFeatures::Cmp()},
      {join::Algorithm::kInnet, join::InnetFeatures::Cmg()},
      {join::Algorithm::kInnet, join::InnetFeatures::Cmpg()},
  };
  std::vector<std::string> headers{"rank"};
  for (const auto& a : algos) headers.push_back(a.Name());
  core::Table table(headers);

  std::vector<std::vector<uint64_t>> loads;
  for (const auto& algo : algos) {
    auto wl = OrDie(workload::Workload::MakeQuery1(&topo, sel, 3, 7));
    auto stats =
        OrDie(core::RunExperiment(wl, MakeOptions(algo, sel),
                                  FromEnv(Env::kCycles, 100)));
    loads.push_back(stats.top_node_loads);
  }
  for (int rank = 0; rank < 15; ++rank) {
    std::vector<std::string> row{std::to_string(rank + 1)};
    for (const auto& l : loads) {
      row.push_back(rank < static_cast<int>(l.size())
                        ? core::Fixed(l[rank] / 1024.0, 1)
                        : "-");
    }
    table.AddRow(row);
  }
  table.Print();
  return 0;
}
