// Figure 13: learning on the Intel-lab-like dataset — Query 3 (region join,
// Dst < 5m, |s.v - t.v| > 1000) on the 54-node lab layout. "Innet learn" is
// initiated with the worst-case estimates sigma_s = sigma_t = sigma_st =
// 100% (placing every join at the base, identical to Naive/Base) and must
// migrate join nodes into the network as it learns; "Innet full knowledge"
// runs with the true parameters from the start. The paper's log-scale plot
// shows Yang+07 and GHT/GPSR orders of magnitude worse; Innet-learn lands
// within ~10% of full knowledge.

#include "bench/bench_util.h"

using namespace aspen;
using namespace aspen::benchutil;

int main() {
  PrintHeader("Figure 13", "Query 3 on the Intel-like dataset (54 nodes)");
  net::Topology topo = net::Topology::IntelLab();
  const int cycles = FromEnv(Env::kCycles, 2000);
  const int runs = FromEnv(Env::kRuns, 3);
  std::printf("%d sampling cycles, %d runs (paper: 65535 samples)\n", cycles,
              runs);

  const workload::SelectivityParams truth{1.0, 1.0, 0.2};
  const workload::SelectivityParams naive_est{1.0, 1.0, 1.0};

  struct Row {
    const char* label;
    AlgoSpec spec;
    workload::SelectivityParams assumed;
    bool learn;
  };
  const Row rows[] = {
      {"Yang+07", {join::Algorithm::kYang07, {}}, truth, false},
      {"GHT/GPSR", {join::Algorithm::kGht, {}}, truth, false},
      {"Naive", {join::Algorithm::kNaive, {}}, truth, false},
      {"Base", {join::Algorithm::kBase, {}}, truth, false},
      {"In-net (full knowledge)",
       {join::Algorithm::kInnet, join::InnetFeatures::Cmg()},
       truth,
       false},
      {"In-net learn",
       {join::Algorithm::kInnet, join::InnetFeatures::Cmg()},
       naive_est,
       true},
  };

  core::Table table({"algorithm", "traffic at base", "max node traffic",
                     "total traffic", "migrations"});
  for (const auto& row : rows) {
    auto opts = MakeOptions(row.spec, row.assumed);
    if (row.learn) EnableLearning(&opts);
    auto agg = OrDie(core::RunAveraged(
        [&](uint64_t seed) {
          return workload::Workload::MakeQuery3(&topo, /*window=*/1, seed);
        },
        opts, cycles, runs));
    table.AddRow({row.label, core::HumanBytes(agg.base_bytes),
                  core::HumanBytes(agg.max_node_bytes),
                  core::HumanBytes(agg.total_bytes),
                  core::Fixed(agg.migrations, 1)});
  }
  table.Print();
  return 0;
}
