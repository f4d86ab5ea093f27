// Ablation: routing-substrate width. Runs Innet on Query 1 with 1, 2 and 3
// overlapping routing trees. More trees cost more initiation (construction
// + summaries + wider exploration) but discover shorter producer-to-producer
// paths, cutting per-cycle computation traffic.
//
// Second sweep: tree mode (per-source vs shared Steiner, RunKnobs::
// tree_mode) x destination-overlap fraction — a population of co-resident
// queries where 0/25/50/75% duplicate another tenant's placed pairs. The
// shared mode's saving should grow with the overlap fraction and vanish at
// zero overlap (DESIGN.md "Cross-query work sharing"). Metrics land in
// BENCH_ablation_trees.json.

#include "bench/bench_util.h"
#include "join/executor.h"
#include "join/medium.h"

using namespace aspen;
using namespace aspen::benchutil;

int main() {
  PrintHeader("Ablation", "Number of routing trees (Innet, Query 1)");
  net::Topology topo = PaperTopology();
  workload::SelectivityParams sel{0.5, 0.5, 0.2};
  const int cycles = FromEnv(Env::kCycles, 200);
  const int runs = FromEnv(Env::kRuns, 3);
  core::Table table({"trees", "initiation", "computation", "total",
                     "avg path len (pairs)"});
  for (int trees : {1, 2, 3}) {
    auto opts = MakeOptions(
        {join::Algorithm::kInnet, join::InnetFeatures::Cmg()}, sel);
    opts.num_trees = trees;
    auto agg = OrDie(core::RunAveraged(
        [&](uint64_t seed) {
          return workload::Workload::MakeQuery1(&topo, sel, 3, seed);
        },
        opts, cycles, runs));
    // Path-length diagnostic from one representative initiation.
    auto wl = OrDie(workload::Workload::MakeQuery1(&topo, sel, 3, 7));
    join::JoinExecutor exec(&wl, opts);
    if (!exec.Initiate().ok()) return 1;
    double hops = 0;
    int n = 0;
    for (const auto& pl : exec.placements()) {
      if (!pl.path.empty()) {
        hops += static_cast<double>(pl.path.size()) - 1;
        ++n;
      }
    }
    table.AddRow({std::to_string(trees),
                  core::HumanBytes(agg.initiation_bytes),
                  core::HumanBytes(agg.computation_bytes),
                  core::HumanBytes(agg.total_bytes),
                  core::Fixed(n > 0 ? hops / n : 0, 2)});
  }
  std::printf("%d cycles, %d runs\n", cycles, runs);
  table.Print();

  // ---- tree mode x destination-overlap fraction ------------------------------
  PrintHeader("Ablation", "Tree mode x destination overlap (8 queries)");
  JsonReport report("BENCH_ablation_trees.json");
  const int kQueries = 8;
  const int kPairs = 20;
  const int mode_cycles = FromEnv(Env::kCycles, 100);
  // Distinct templates; an "overlapping" query reuses template 0 instead.
  std::vector<workload::Workload> pool;
  pool.reserve(kQueries);
  for (int i = 0; i < kQueries; ++i) {
    pool.push_back(OrDie(workload::Workload::MakeQuery0(
        &topo, sel, kPairs, /*window=*/3, /*seed=*/100 + i)));
  }
  core::Table mode_table(
      {"overlap", "per-source", "shared", "saving", "shared placements"});
  for (int overlap_pct : {0, 25, 50, 75}) {
    const int dups = kQueries * overlap_pct / 100;
    uint64_t bytes_by_mode[2] = {0, 0};
    int shared_placements = 0;
    for (common::TreeMode mode :
         {common::TreeMode::kPerSource, common::TreeMode::kShared}) {
      auto opts = MakeOptions(
          {join::Algorithm::kInnet, join::InnetFeatures::Cm()}, sel);
      opts.knobs.tree_mode = mode;
      join::MediumOptions mopts;
      mopts.knobs.tree_mode = mode;
      join::SharedMedium medium(&topo, {}, mopts);
      for (int q = 0; q < kQueries; ++q) {
        // The first `dups` queries duplicate the last template's pairs.
        const workload::Workload& wl = q < dups ? pool[kQueries - 1] : pool[q];
        OrDie(medium.TryAddQuery(&wl, opts).status());
      }
      OrDie(medium.InitiateAll());
      OrDie(medium.RunCycles(mode_cycles));
      bytes_by_mode[mode == common::TreeMode::kShared] =
          medium.stats().TotalBytesSent();
      if (mode == common::TreeMode::kShared) {
        shared_placements = medium.num_shared_placements();
      }
    }
    const double saving =
        1.0 - static_cast<double>(bytes_by_mode[1]) /
                  static_cast<double>(bytes_by_mode[0]);
    mode_table.AddRow({std::to_string(overlap_pct) + "%",
                       core::HumanBytes(bytes_by_mode[0]),
                       core::HumanBytes(bytes_by_mode[1]),
                       core::Fixed(100.0 * saving, 1) + "%",
                       std::to_string(shared_placements)});
    const std::string suffix = "_ov" + std::to_string(overlap_pct);
    report.Add("ablation_trees", "per_source_bytes" + suffix,
               static_cast<double>(bytes_by_mode[0]));
    report.Add("ablation_trees", "shared_bytes" + suffix,
               static_cast<double>(bytes_by_mode[1]));
    report.Add("ablation_trees", "shared_saving_pct" + suffix,
               100.0 * saving);
  }
  std::printf("%d cycles, %d queries, %d pairs each\n", mode_cycles, kQueries,
              kPairs);
  mode_table.Print();
  report.Write();
  return 0;
}
