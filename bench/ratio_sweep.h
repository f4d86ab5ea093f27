// The ratio x join-selectivity traffic sweep shared by Figures 2, 3, 19
// and 20: for each sigma_s:sigma_t stage and each sigma_st, run every
// algorithm and report total traffic and base-station load.

#ifndef ASPEN_BENCH_RATIO_SWEEP_H_
#define ASPEN_BENCH_RATIO_SWEEP_H_

#include <functional>

#include "bench/bench_util.h"

namespace aspen {
namespace benchutil {

using SweepFactory = std::function<Result<workload::Workload>(
    const workload::SelectivityParams& params, uint64_t seed)>;

/// Runs the Figure 2/3-style sweep and prints two tables (total traffic,
/// base-station load). In mesh mode the unit is messages (Appendix F);
/// otherwise bytes.
inline void RunRatioSweep(const SweepFactory& factory, int cycles, bool mesh) {
  const int runs = FromEnv(Env::kRuns, 5);
  const auto algos = Figure2Algos();

  std::vector<std::string> headers{"sigma_s:sigma_t", "sigma_st"};
  for (const auto& a : algos) {
    headers.push_back(mesh && a.algo == join::Algorithm::kGht ? "DHT"
                                                              : a.Name());
  }
  core::Table total(headers);
  core::Table base(headers);

  for (const auto& ratio : Ratios()) {
    for (const auto& js : JoinSels()) {
      workload::SelectivityParams params{ratio.sigma_s, ratio.sigma_t,
                                         js.value};
      std::vector<std::string> total_row{ratio.label, js.label};
      std::vector<std::string> base_row{ratio.label, js.label};
      for (const auto& algo : algos) {
        auto wl_factory = [&](uint64_t seed) { return factory(params, seed); };
        auto agg = OrDie(core::RunAveraged(
            wl_factory, MakeOptions(algo, params, mesh), cycles, runs));
        if (mesh) {
          total_row.push_back(core::Fixed(agg.total_messages / 1000.0, 2) +
                              "k msgs");
          base_row.push_back(core::Fixed(agg.base_messages / 1000.0, 2) +
                             "k msgs");
        } else {
          total_row.push_back(core::HumanBytes(agg.total_bytes));
          base_row.push_back(core::HumanBytes(agg.base_bytes));
        }
      }
      total.AddRow(total_row);
      base.AddRow(base_row);
    }
  }
  std::printf("(a) Total traffic, %d sampling cycles, averaged over %d runs\n",
              cycles, runs);
  total.Print();
  std::printf("\n(b) Load on the base station\n");
  base.Print();
}

}  // namespace benchutil
}  // namespace aspen

#endif  // ASPEN_BENCH_RATIO_SWEEP_H_
