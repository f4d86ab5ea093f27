// The "true selectivities x optimizer estimates" matrices of Figures 4, 8,
// 10 and 11: data is generated with one sigma_s:sigma_t ratio (rows) while
// the optimizer is given another (columns). The diagonal holds the correctly
// informed runs and should be the cheapest entry of each row.

#ifndef ASPEN_BENCH_ESTIMATE_MATRIX_H_
#define ASPEN_BENCH_ESTIMATE_MATRIX_H_

#include <functional>

#include "bench/bench_util.h"

namespace aspen {
namespace benchutil {

using TrueFactory = std::function<Result<workload::Workload>(
    const workload::SelectivityParams& true_params, uint64_t seed)>;

/// Runs the matrix for one algorithm and prints a table: one row per true
/// ratio, one column per assumed ratio; cells are mean total traffic. When
/// `learning` is true the executor adapts online (Figures 10/11); the
/// diagonal is tagged with '*'.
inline void RunEstimateMatrix(const TrueFactory& factory,
                              const AlgoSpec& algo, double sigma_st,
                              int cycles, bool learning) {
  const int runs = FromEnv(Env::kRuns, 3);
  std::vector<std::string> headers{"true \\ assumed"};
  for (const auto& a : Ratios()) headers.push_back(a.label);
  core::Table table(headers);
  for (const auto& true_ratio : Ratios()) {
    workload::SelectivityParams truth{true_ratio.sigma_s, true_ratio.sigma_t,
                                      sigma_st};
    std::vector<std::string> row{true_ratio.label};
    for (const auto& assumed_ratio : Ratios()) {
      workload::SelectivityParams assumed{assumed_ratio.sigma_s,
                                          assumed_ratio.sigma_t, sigma_st};
      auto opts = MakeOptions(algo, assumed);
      if (learning) EnableLearning(&opts);
      auto agg = OrDie(core::RunAveraged(
          [&](uint64_t seed) { return factory(truth, seed); }, opts, cycles,
          runs));
      std::string cell = core::HumanBytes(agg.total_bytes);
      if (&true_ratio == &assumed_ratio ||
          true_ratio.label == std::string(assumed_ratio.label)) {
        cell += " *";
      }
      row.push_back(cell);
    }
    table.AddRow(row);
  }
  std::printf("%s, sigma_st=%.0f%%, %d cycles, learning %s, %d runs\n",
              algo.Name().c_str(), sigma_st * 100, cycles,
              learning ? "ON" : "OFF", runs);
  table.Print();
}

}  // namespace benchutil
}  // namespace aspen

#endif  // ASPEN_BENCH_ESTIMATE_MATRIX_H_
