// Ablation: summary structure for the primary join key. Bloom filters
// (fixed 16 bytes, small false-positive rate inflating exploration),
// intervals (4 bytes, coarse pruning), and exact sets (no false positives,
// unbounded size) — the trade-off between routing-table size and wasted
// exploration traffic.

#include "bench/bench_util.h"
#include "join/executor.h"

using namespace aspen;
using namespace aspen::benchutil;

int main() {
  PrintHeader("Ablation", "Summary structures for content routing (Query 1)");
  net::Topology topo = PaperTopology();
  workload::SelectivityParams sel{0.5, 0.5, 0.2};
  const int cycles = FromEnv(Env::kCycles, 100);
  const int runs = FromEnv(Env::kRuns, 3);
  struct Variant {
    const char* name;
    routing::SummaryType type;
  };
  const Variant variants[] = {
      {"Bloom (16B)", routing::SummaryType::kBloom},
      {"Interval (4B)", routing::SummaryType::kInterval},
      {"Exact set (2B/value)", routing::SummaryType::kExact},
  };
  core::Table table({"summary", "initiation", "total traffic"});
  for (const auto& v : variants) {
    auto opts = MakeOptions(
        {join::Algorithm::kInnet, join::InnetFeatures::Cmg()}, sel);
    opts.summary_type = v.type;
    auto agg = OrDie(core::RunAveraged(
        [&](uint64_t seed) {
          return workload::Workload::MakeQuery1(&topo, sel, 3, seed);
        },
        opts, cycles, runs));
    table.AddRow({v.name, core::HumanBytes(agg.initiation_bytes),
                  core::HumanBytes(agg.total_bytes)});
  }
  std::printf("%d cycles, %d runs\n", cycles, runs);
  table.Print();
  return 0;
}
