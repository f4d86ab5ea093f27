// 10,000-node scale-up: the headroom unlocked by the zero-allocation data
// plane (interned routes, pooled frames/payloads, POD envelopes).
//
// Figure 18 stops at a few hundred mesh nodes; this bench runs a windowed
// join over a 100x100 grid — two orders of magnitude past the paper's
// evaluation — and reports steady-state cycle throughput plus the measured
// allocations per cycle. Before the data-plane refactor every cycle paid
// malloc/free for each sample's payload, path vector and frame churn, which
// bounded cycle rate at this scale; steady-state cycles now allocate
// nothing, so throughput is pure simulation work.
//
// Output: console summary + BENCH_mesh_10k.json (cycles/sec, bytes,
// allocations) for the perf trajectory.
//
// `--smoke` shrinks the run for CI (same topology, fewer cycles).

#include <chrono>
#include <cstdlib>

#include "bench/alloc_audit.h"
#include "bench/bench_util.h"
#include "core/engine.h"
#include "join/executor.h"
#include "net/topology.h"
#include "workload/workload.h"

namespace aspen {
namespace {

int Main(int argc, char** argv) {
  allocaudit::SetCounting(true);  // the whole run is audited
  const bool smoke = benchutil::ConsumeSmokeFlag(&argc, argv);
  const int warmup_cycles = smoke ? 5 : 20;
  const int measured_cycles =
      benchutil::FromEnv(benchutil::Env::kCycles, smoke ? 10 : 100);

  benchutil::PrintHeader("bench_mesh_10k",
                         "10,000-node grid join (zero-allocation data plane)");

  auto topo = benchutil::OrDie(net::Topology::Grid(100, 100, 2560.0));
  workload::SelectivityParams sel{0.5, 0.5, 0.2};
  auto wl = benchutil::OrDie(
      workload::Workload::MakeQuery0(&topo, sel, /*num_pairs=*/500,
                                     /*window=*/3, /*seed=*/7));

  join::ExecutorOptions opts;
  opts.algorithm = join::Algorithm::kInnet;
  opts.features = join::InnetFeatures::Cm();
  opts.assumed = sel;
  opts.mesh_mode = true;
  opts.knobs = benchutil::KnobsFromEnv();

  join::JoinExecutor exec(&wl, opts);
  auto t0 = std::chrono::steady_clock::now();
  Status st = exec.Initiate();
  if (!st.ok()) {
    std::fprintf(stderr, "fatal: %s\n", st.ToString().c_str());
    return 1;
  }
  auto t1 = std::chrono::steady_clock::now();
  st = exec.RunCycles(warmup_cycles);
  if (!st.ok()) {
    std::fprintf(stderr, "fatal: %s\n", st.ToString().c_str());
    return 1;
  }

  const uint64_t allocs_before = allocaudit::Count();
  const uint64_t bytes_before = exec.network().stats().TotalBytesSent();
  auto t2 = std::chrono::steady_clock::now();
  st = exec.RunCycles(measured_cycles);
  auto t3 = std::chrono::steady_clock::now();
  if (!st.ok()) {
    std::fprintf(stderr, "fatal: %s\n", st.ToString().c_str());
    return 1;
  }
  const uint64_t allocs = allocaudit::Count() - allocs_before;
  const uint64_t bytes = exec.network().stats().TotalBytesSent() - bytes_before;

  const double init_s = std::chrono::duration<double>(t1 - t0).count();
  const double run_s = std::chrono::duration<double>(t3 - t2).count();
  const double cycles_per_sec = measured_cycles / run_s;
  const double allocs_per_cycle =
      static_cast<double>(allocs) / measured_cycles;

  std::printf("nodes                 %d\n", topo.num_nodes());
  std::printf("shards                %d\n", opts.knobs.shards);
  std::printf("pairs                 %zu\n", exec.pairs().size());
  std::printf("initiation            %.2f s\n", init_s);
  std::printf("measured cycles       %d (after %d warm-up)\n",
              measured_cycles, warmup_cycles);
  std::printf("cycle throughput      %.1f cycles/s (%.2f ms/cycle)\n",
              cycles_per_sec, 1e3 * run_s / measured_cycles);
  std::printf("traffic               %.1f MB over the measured block\n",
              bytes / 1e6);
  std::printf("heap allocations      %llu total, %.3f per cycle\n",
              static_cast<unsigned long long>(allocs), allocs_per_cycle);
  std::printf("results delivered     %llu\n",
              static_cast<unsigned long long>(exec.results()));

  // One per-config entry (mesh_10k_s<S>) plus the headline "mesh_10k"
  // entry. The CI release-bench runs this binary once per shard count and
  // reads each run's per-config entry right after that run.
  benchutil::JsonReport report("BENCH_mesh_10k.json");
  char config[64];
  std::snprintf(config, sizeof(config), "mesh_10k_s%d", opts.knobs.shards);
  for (const char* entry : {"mesh_10k", static_cast<const char*>(config)}) {
    report.Add(entry, "nodes", topo.num_nodes());
    report.Add(entry, "shards", opts.knobs.shards);
    report.Add(entry, "cycles_per_sec", cycles_per_sec);
    report.Add(entry, "ms_per_cycle", 1e3 * run_s / measured_cycles);
    report.Add(entry, "bytes", static_cast<double>(bytes));
    report.Add(entry, "allocs_per_cycle", allocs_per_cycle);
    report.Add(entry, "init_seconds", init_s);
  }
  report.Write();

  // Deterministic subset for the CI shard-determinism gate (the console
  // output above contains timing and cannot be diffed byte for byte).
  benchutil::DeterminismLog det;
  if (det.enabled()) {
    const auto& stats = exec.network().stats();
    det.Add("nodes", topo.num_nodes());
    det.Add("results", exec.results());
    det.Add("measured_bytes", bytes);
    det.Add("total_bytes", stats.TotalBytesSent());
    det.Add("total_messages", stats.TotalMessagesSent());
    det.Add("base_bytes", stats.BaseStationBytes());
    det.Add("traffic_fingerprint", benchutil::TrafficFingerprint(stats));
    auto rs = exec.Stats();
    det.AddDoubleBits("avg_result_delay", rs.avg_result_delay_cycles);
    det.AddDoubleBits("max_result_delay", rs.max_result_delay_cycles);
    if (!det.Write()) return 1;
  }

  // Hard steady-state audit (was a report-only 0.07/cycle: payload-slab and
  // staging high-water growth, since moved to Initiate by the pool reserve
  // and the pre-sized per-shard producer caches). Any allocation in the
  // measured block is a regression now.
  if (allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: %llu heap allocations in the measured block "
                 "(expected 0)\n",
                 static_cast<unsigned long long>(allocs));
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace aspen

int main(int argc, char** argv) { return aspen::Main(argc, argv); }
