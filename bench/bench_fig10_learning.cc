// Figure 10: effect of learning under wrong initial estimates. For Queries
// 0-2 (200 sampling cycles, Innet-cmpg), data runs with each true
// sigma_s:sigma_t ratio while initiation is optimized for each assumed
// ratio; each cell reports traffic without learning -> with learning. Under
// wrong estimates learning should show large gains; on the diagonal a small
// loss (learning overhead) is expected.

#include "bench/bench_util.h"
#include "bench/estimate_matrix.h"

using namespace aspen;
using namespace aspen::benchutil;

namespace {

void GainLossMatrix(const TrueFactory& factory, double sigma_st, int window,
                    int cycles) {
  const int runs = FromEnv(Env::kRuns, 3);
  AlgoSpec cmpg{join::Algorithm::kInnet, join::InnetFeatures::Cmpg()};
  std::vector<std::string> headers{"true \\ assumed"};
  for (const auto& a : Ratios()) headers.push_back(a.label);
  core::Table table(headers);
  (void)window;
  for (const auto& true_ratio : Ratios()) {
    workload::SelectivityParams truth{true_ratio.sigma_s, true_ratio.sigma_t,
                                      sigma_st};
    std::vector<std::string> row{true_ratio.label};
    for (const auto& assumed_ratio : Ratios()) {
      workload::SelectivityParams assumed{assumed_ratio.sigma_s,
                                          assumed_ratio.sigma_t, sigma_st};
      auto wl_factory = [&](uint64_t seed) { return factory(truth, seed); };
      auto off_opts = MakeOptions(cmpg, assumed);
      auto on_opts = off_opts;
      EnableLearning(&on_opts);
      auto off = OrDie(core::RunAveraged(wl_factory, off_opts, cycles, runs));
      auto on = OrDie(core::RunAveraged(wl_factory, on_opts, cycles, runs));
      double delta_pct =
          off.total_bytes > 0
              ? (off.total_bytes - on.total_bytes) / off.total_bytes * 100.0
              : 0.0;
      std::string cell = core::HumanBytes(off.total_bytes) + " -> " +
                         core::HumanBytes(on.total_bytes) + " (" +
                         (delta_pct >= 0 ? "+" : "") +
                         core::Fixed(delta_pct, 0) + "%)";
      row.push_back(cell);
    }
    table.AddRow(row);
  }
  std::printf("(gain%% = traffic saved by learning; %d cycles, %d runs)\n",
              cycles, runs);
  table.Print();
}

}  // namespace

int main() {
  PrintHeader("Figure 10", "Learning gain/loss under wrong estimates");
  net::Topology topo = PaperTopology();
  const int cycles = FromEnv(Env::kCycles, 200);

  std::printf("\n(a) Query 0, sigma_st=20%%, w=3\n");
  GainLossMatrix(
      [&](const workload::SelectivityParams& t, uint64_t seed) {
        return workload::Workload::MakeQuery0(&topo, t, 25, 3, seed);
      },
      0.2, 3, cycles);

  std::printf("\n(b) Query 1, sigma_st=5%%, w=3\n");
  GainLossMatrix(
      [&](const workload::SelectivityParams& t, uint64_t seed) {
        return workload::Workload::MakeQuery1(&topo, t, 3, seed);
      },
      0.05, 3, cycles);

  std::printf("\n(c) Query 2, sigma_st=10%%, w=1\n");
  GainLossMatrix(
      [&](const workload::SelectivityParams& t, uint64_t seed) {
        return workload::Workload::MakeQuery2(&topo, t, 1, seed);
      },
      0.10, 1, cycles);
  return 0;
}
