// Scenario sweep: node churn x loss drift, a workload family the paper
// only samples (Figure 14 kills exactly one node). A RandomChurn schedule
// fails random nodes throughout the run (each recovering after a fixed
// outage) while the radio's default loss probability drifts upward
// mid-run, and both the pairwise plan (Innet) and the MPO plan (Innet-cmg)
// execute under the identical scenario. Every configuration runs twice
// with the same seed and the table's "det" column confirms the scenario
// engine is bit-deterministic end to end.

#include "bench/bench_util.h"
#include "scenario/dynamics.h"

using namespace aspen;
using namespace aspen::benchutil;

namespace {

/// The fields the determinism check compares (the full headline metrics).
struct Fingerprint {
  uint64_t total_bytes, results, failovers, migrations;
  double avg_delay, max_delay;

  static Fingerprint Of(const join::RunStats& st) {
    return {st.total_bytes,  st.results,
            st.failovers,    st.migrations,
            st.avg_result_delay_cycles, st.max_result_delay_cycles};
  }
  bool operator==(const Fingerprint& o) const {
    return total_bytes == o.total_bytes && results == o.results &&
           failovers == o.failovers && migrations == o.migrations &&
           avg_delay == o.avg_delay && max_delay == o.max_delay;
  }
};

}  // namespace

int main() {
  PrintHeader("Scenario sweep", "Node churn x loss drift (pairwise vs MPO)");
  const int cycles = FromEnv(Env::kCycles, 100);
  const uint64_t seed = 7;
  net::Topology topo = PaperTopology(42);
  workload::SelectivityParams sel{0.5, 0.5, 0.2};
  auto wl = OrDie(workload::Workload::MakeQuery1(&topo, sel, /*window=*/3,
                                                 seed));

  const std::vector<AlgoSpec> plans = {
      {join::Algorithm::kInnet, join::InnetFeatures::None()},  // pairwise
      {join::Algorithm::kInnet, join::InnetFeatures::Cmg()},   // MPO
  };
  const std::vector<double> churn_rates = {0.0, 0.001, 0.005};
  const std::vector<double> drift_targets = {0.02, 0.10, 0.20};
  const double base_loss = 0.02;
  const int down_cycles = 10;

  core::Table table({"plan", "churn/node/cycle", "loss 0.02->", "traffic (KB)",
                     "results", "failovers", "migrations", "det"});
  bool all_deterministic = true;
  for (const AlgoSpec& plan : plans) {
    for (double churn : churn_rates) {
      for (double drift : drift_targets) {
        scenario::DynamicsSchedule schedule = scenario::DynamicsSchedule::
            RandomChurn(topo, cycles, churn, down_cycles, /*seed=*/seed + 1);
        if (drift != base_loss) {
          schedule.DriftLossTo(/*cycle=*/cycles / 5, drift,
                               /*over_cycles=*/cycles / 3);
        }
        core::ExperimentOptions opts;
        opts.executor = MakeOptions(plan, sel);
        opts.executor.loss_prob = base_loss;
        opts.executor.seed = seed;
        opts.dynamics = &schedule;
        auto first = OrDie(core::RunExperiment(wl, opts, cycles));
        auto second = OrDie(core::RunExperiment(wl, opts, cycles));
        bool det = Fingerprint::Of(first) == Fingerprint::Of(second);
        all_deterministic = all_deterministic && det;
        table.AddRow({plan.Name(), core::Fixed(churn * 100, 1) + "%",
                      core::Fixed(drift * 100, 0) + "%",
                      core::Fixed(first.total_bytes / 1024.0, 1),
                      std::to_string(first.results),
                      std::to_string(first.failovers),
                      std::to_string(first.migrations),
                      det ? "yes" : "NO"});
      }
    }
  }
  table.Print();
  if (!all_deterministic) {
    std::fprintf(stderr, "FAIL: repeated same-seed runs diverged\n");
    return 1;
  }
  std::printf("All configurations bit-identical across repeated runs.\n");
  return 0;
}
